//! The benchmark's own span recorder for `--trace 1` runs: spans are taken
//! around calls into each layer's public functions and around each socket
//! query, kept in memory, and written out once when the run ends. (Spans
//! inside the program are ROADMAP item 4, not this benchmark.)

use flor_obs::json::JsonWriter;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`lang.parse`, `core.replay`, `query`, …).
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The query this span belongs to; spans of one query share it.
    pub query: Option<u64>,
}

/// In-memory span sink shared by the driver's threads.
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Records a finished interval; returns its index (a `parent` for
    /// later spans).
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        query: Option<u64>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            query,
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span; returns its value and its duration in ns.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        query: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(name, start, end, parent, query);
        (value, (end - start).as_nanos() as f64)
    }

    /// The trace file: `{"workload", "spans": [{id, name, start_us,
    /// end_us, parent, query}, …]}` with `-1` for "none".
    pub fn to_json(&self, workload: &str) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("workload", workload);
        w.key("spans");
        w.begin_arr();
        let spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        for (id, s) in spans.iter().enumerate() {
            w.begin_obj();
            w.field_u64("id", id as u64);
            w.field_str("name", &s.name);
            w.field_f64("start_us", s.start_ns as f64 / 1e3);
            w.field_f64("end_us", s.end_ns as f64 / 1e3);
            w.field_f64("parent", s.parent.map_or(-1.0, |p| p as f64));
            w.field_f64("query", s.query.map_or(-1.0, |q| q as f64));
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}
