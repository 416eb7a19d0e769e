//! From raw measurements to named metrics, and the two output forms: the
//! readable `name value unit` lines and the one-line JSON result the
//! driver contract asks for. `BENCHMARK.json` holds each metric's
//! direction and bound; the names and units here must match it (a test
//! holds them together).

use crate::stats::{median, percentile, samples_beyond};
use flor_obs::json::JsonWriter;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one invocation reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Queries attempted in the measured serve phase(s).
    pub attempted: u64,
    /// Of those: ended `FAILED`, refused, `+anomaly`, timed out, or failed
    /// the output check.
    pub failed: u64,
    /// The gated metrics (end-to-end ones, or per-layer ones under
    /// `--trace 1`), in reporting order.
    pub metrics: Vec<Metric>,
    /// Un-gated context printed above the metrics: host, sample counts,
    /// sizes, the Fig. 12 headline, predicted separations.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The contract's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("correct");
        w.bool_val(self.correct);
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("metrics");
        w.begin_obj();
        for m in &self.metrics {
            w.key(&m.name);
            w.begin_obj();
            w.field_f64("value", m.value);
            w.field_str("unit", m.unit);
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }

    /// Notes, then every metric by name with its unit, then the result
    /// line (which must stay last on stdout).
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for m in &self.metrics {
            println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json_line());
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        value_of(&self.metrics, name)
    }
}

/// The value of the metric called `name` in `metrics`.
pub fn value_of(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Raw measurements of one end-to-end (`--trace 0`) run.
#[derive(Debug, Clone, Default)]
pub struct EndToEndRaw {
    /// `available_parallelism` of the host.
    pub host_cores: usize,
    /// Closed-loop client threads (= connections = server workers).
    pub clients: usize,
    /// Seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each `flor run` child.
    pub run_s: Vec<f64>,
    /// Wall seconds of each `flor record` child (same count, interleaved).
    pub record_s: Vec<f64>,
    /// Checkpoints the default (adaptive) `flor record` kept, per child.
    pub adaptive_checkpoints: Vec<f64>,
    /// Bytes on disk of the served fixture (stores + dedup arena).
    pub stored_bytes: u64,
    /// Uncompressed checkpoint bytes of the served fixture.
    pub raw_bytes: u64,
    /// Checkpoints in the served fixture.
    pub checkpoints: u64,
    /// The verdict on the serve phase's queries.
    pub checked: Checked,
    /// Serve-phase wall seconds (first submission → last completion).
    pub serve_wall_s: f64,
    /// Median `VmRSS` of the server over the second half of the first
    /// `MIN_QUERIES` queries, MiB.
    pub serve_rss_mib: f64,
}

/// The verdict on one phase's queries.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// `stream` → `+done`, ms, of every correct query.
    pub latency_ms: Vec<f64>,
    /// `stream` → first `+entry`, ms, of every correct query.
    pub ttfe_ms: Vec<f64>,
    /// Queries attempted.
    pub attempted: u64,
    /// Of those: ended `FAILED`, refused, `+anomaly`, timed out, or failed
    /// the output check.
    pub failed: u64,
    /// Sampled queries compared with the from-scratch oracle.
    pub oracle_checked: u64,
    /// Of those: byte-equal.
    pub oracle_equal: u64,
    /// First few failure messages, for the notes.
    pub failures: Vec<String>,
}

impl Checked {
    /// No query failed and every sampled log equalled its oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.oracle_checked > 0
            && self.oracle_equal == self.oracle_checked
    }
}

/// Names the end-to-end metrics and states the run's context.
pub fn assemble_end_to_end(workload: &str, raw: &EndToEndRaw) -> RunResult {
    let run_s = median(&raw.run_s);
    let retrain_ms = run_s * 1e3;
    let record_slowdown = median(&raw.record_s) / run_s;
    let c = &raw.checked;
    let p50 = median(&c.latency_ms);
    let correct_queries = c.latency_ms.len() as f64;
    let metrics = vec![
        Metric::new("setup_s", median(&raw.setup_s), "s"),
        Metric::new("record_slowdown", record_slowdown, "ratio"),
        Metric::new(
            "stored_ratio",
            raw.stored_bytes as f64 / raw.raw_bytes.max(1) as f64,
            "ratio",
        ),
        Metric::new("query_p50_ms", p50, "ms"),
        Metric::new("query_p90_ms", percentile(&c.latency_ms, 90.0), "ms"),
        Metric::new("qps", correct_queries / raw.serve_wall_s.max(1e-9), "1/s"),
        Metric::new("serve_rss_mb", raw.serve_rss_mib, "MiB"),
    ];
    let mut notes = vec![
        format!(
            "workload {workload}: closed loop, {} client thread(s) = connection(s) = server \
             worker(s), host_cores {} (no cross-client ratio here is a parallel speed-up)",
            raw.clients, raw.host_cores
        ),
        "reads are served from the OS page cache; the store runs at its default durability".into(),
        format!(
            "fixture: {} checkpoints, {} raw bytes, {} bytes on disk (store cache budget 256 MiB)",
            raw.checkpoints, raw.raw_bytes, raw.stored_bytes
        ),
        format!(
            "record phase: {} interleaved run/record pairs; default (adaptive) record kept a \
             median of {} checkpoints; epsilon promise = record_slowdown - 1 = {:.4}",
            raw.run_s.len(),
            median(&raw.adaptive_checkpoints),
            record_slowdown - 1.0
        ),
        format!(
            "serve phase: {} queries attempted, {} failed (failed_share {:.4}), {} samples in \
             the latency percentiles, {} beyond p90",
            c.attempted,
            c.failed,
            c.failed as f64 / c.attempted.max(1) as f64,
            c.latency_ms.len(),
            samples_beyond(&c.latency_ms, 90.0)
        ),
        format!(
            "ttfe_p50_ms {:.4} ms (stream line -> first +entry; not gated: the planner sizes \
             micro-ranges from the recorded, timing-derived cost profile, which makes it bimodal)",
            median(&c.ttfe_ms)
        ),
        format!(
            "oracle: {}/{} sampled query logs byte-equal to a from-scratch run",
            c.oracle_equal, c.oracle_checked
        ),
        format!(
            "retrain_ms {retrain_ms:.4} ms; retrain_ratio {:.4} (query_p50_ms / retrain_ms; \
             below 1 means hindsight beats re-training)",
            p50 / retrain_ms
        ),
    ];
    notes.extend(c.failures.iter().map(|f| format!("failure: {f}")));
    RunResult {
        correct: c.correct(),
        attempted: c.attempted,
        failed: c.failed,
        metrics,
        notes,
    }
}

/// The layer budget of one fresh query: measured rows plus the remainder.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// One-client socket p50 of the fresh class, ms — what the rows and
    /// the remainder add up to.
    pub total_ms: f64,
    /// `(layer row, ms)` in blocking order, outermost first.
    pub rows: Vec<(&'static str, f64)>,
    /// `total_ms` minus the rows: scheduler hand-off, sink, event-loop
    /// wake-ups, socket writes — whatever only in-program spans can split.
    pub unattributed_ms: f64,
}

/// Builds the budget of one fresh query outside-in from the per-layer
/// metrics `layers::measure` took, the one-client socket p50 (`total_ms`)
/// and the socket round trip: the round trip, the registry's share of
/// `query_streaming` beyond the replay it wraps, the front-end calls replay
/// makes once each, its restores, and what is left of the replay
/// (execution, merge, thread start-up) as `core.exec`. Rows plus
/// `unattributed_ms` equal `total_ms` by construction.
pub fn budget(layer: &[Metric], total_ms: f64, rtt_us: f64) -> Budget {
    let get = |name: &str| -> f64 {
        value_of(layer, name).unwrap_or_else(|| panic!("layers::measure reports {name}"))
    };
    let ms_of_us = |name: &str| get(name) / 1e3;
    let front_end = [
        ("lang.parse", ms_of_us("lang.parse_us")),
        ("analysis.instrument", ms_of_us("analysis.instrument_us")),
        ("lang.diff", ms_of_us("lang.diff_us")),
        ("analysis.slice", ms_of_us("analysis.slice_us")),
        ("lang.compile", ms_of_us("lang.compile_us")),
    ];
    let (replay, restore) = (get("core.replay_ms"), get("core.restore_ms"));
    let mut rows = vec![
        ("net.rtt", rtt_us / 1e3),
        ("registry.overhead", get("registry.query_ms") - replay),
    ];
    rows.extend(front_end);
    rows.push(("chkpt.restore", restore));
    let front_end_ms: f64 = front_end.iter().map(|(_, ms)| ms).sum();
    rows.push(("core.exec", replay - front_end_ms - restore));
    let attributed: f64 = rows.iter().map(|(_, ms)| ms).sum();
    Budget {
        total_ms,
        rows,
        unattributed_ms: total_ms - attributed,
    }
}

/// What the socket side of a `--trace 1` run measured, medians.
#[derive(Debug, Clone, Copy)]
pub struct SocketSide {
    /// One-client p50 of fresh queries with spans off, ms (the budget's total).
    pub fresh_ms: f64,
    /// The same with spans on, ms.
    pub traced_fresh_ms: f64,
    /// One-client p50 of exact repeats, ms.
    pub repeat_ms: f64,
    /// One-client p50 of reformatted variants, ms.
    pub variant_ms: f64,
    /// `runs` round trip, µs.
    pub rtt_us: f64,
    /// (`+done` − first `+entry`) ÷ entries on cache-hit streams, µs.
    pub entry_us: f64,
}

/// The per-layer metrics of a traced run: what `layers::measure` took,
/// then the budget's residual rows and the socket side.
pub fn traced_metrics(mut layer: Vec<Metric>, b: &Budget, s: &SocketSide) -> Vec<Metric> {
    let query_ms = value_of(&layer, "registry.query_ms").expect("layers::measure reports it");
    layer.extend([
        Metric::new("core.exec_ms", b.row("core.exec"), "ms"),
        Metric::new("registry.overhead_ms", b.row("registry.overhead"), "ms"),
        Metric::new("net.rtt_us", s.rtt_us, "us"),
        Metric::new("serve.entry_us", s.entry_us, "us"),
        Metric::new("serve.overhead_ms", b.total_ms - query_ms, "ms"),
        Metric::new("unattributed_ms", b.unattributed_ms, "ms"),
        Metric::new(
            "unattributed_pct",
            100.0 * b.unattributed_ms / b.total_ms,
            "%",
        ),
        Metric::new("class.fresh_p50_ms", s.fresh_ms, "ms"),
        Metric::new("class.repeat_p50_ms", s.repeat_ms, "ms"),
        Metric::new("class.variant_p50_ms", s.variant_ms, "ms"),
        Metric::new(
            "trace_overhead_pct",
            100.0 * (s.traced_fresh_ms - s.fresh_ms) / s.fresh_ms,
            "%",
        ),
    ]);
    layer
}

impl Budget {
    /// The row named `name`, ms.
    pub fn row(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ms)| *ms)
    }

    /// The layer table as note lines: each row with its share of the total.
    pub fn table(&self) -> Vec<String> {
        let share = |ms: f64| 100.0 * ms / self.total_ms.max(1e-9);
        let mut lines = vec![format!(
            "layer budget of one fresh query (1 client, socket p50 {:.4} ms):",
            self.total_ms
        )];
        for (name, ms) in &self.rows {
            lines.push(format!("  {name:<22} {ms:>10.4} ms {:>6.1}%", share(*ms)));
        }
        lines.push(format!(
            "  {:<22} {:>10.4} ms {:>6.1}%",
            "unattributed",
            self.unattributed_ms,
            share(self.unattributed_ms)
        ));
        lines
    }
}
