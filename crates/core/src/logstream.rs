//! Structured log output — the observable surface of a training run.
//!
//! "The standard metrics that get logged on model training (e.g. the loss
//! and accuracy) form a fairly unique fingerprint of a model's training
//! characteristics" (paper §5.2.2). Flor's deferred correctness checks diff
//! this stream between record and replay.
//!
//! Entries are tagged with the [`Section`] of the program they came from so
//! parallel replay can (a) suppress duplicate output from worker
//! *initialization* iterations, and (b) merge worker partitions back into
//! record order.

use std::fmt;

/// Which part of the program produced a log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Section {
    /// Before the main loop.
    Pre,
    /// Inside main-loop iteration `g` (global index).
    Iter(u64),
    /// After the main loop.
    Post,
}

/// One `log(...)` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The log key (first argument of `log`).
    pub key: String,
    /// Canonical rendering of the remaining arguments, space-joined.
    pub value: String,
    /// Program section.
    pub section: Section,
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sec = match self.section {
            Section::Pre => "pre".to_string(),
            Section::Iter(g) => format!("it{g:06}"),
            Section::Post => "post".to_string(),
        };
        write!(f, "[{sec}] {}\t{}", self.key, self.value)
    }
}

/// An append-only log stream with section tracking and a suppression gate
/// (used during replay-initialization iterations).
#[derive(Debug, Default)]
pub struct LogStream {
    entries: Vec<LogEntry>,
    section: Option<Section>,
    suppressed: bool,
}

impl LogStream {
    /// Empty stream, positioned in the preamble.
    pub fn new() -> Self {
        LogStream {
            entries: Vec::new(),
            section: Some(Section::Pre),
            suppressed: false,
        }
    }

    /// Appends an entry (unless suppressed).
    pub fn log(&mut self, key: impl Into<String>, value: impl Into<String>) {
        if self.suppressed {
            return;
        }
        self.entries.push(LogEntry {
            key: key.into(),
            value: value.into(),
            section: self.section.unwrap_or(Section::Pre),
        });
    }

    /// Sets the current section.
    pub(crate) fn set_section(&mut self, section: Section) {
        self.section = Some(section);
    }

    /// Current section.
    pub fn section(&self) -> Section {
        self.section.unwrap_or(Section::Pre)
    }

    /// Gates output (replay-initialization iterations re-execute unskippable
    /// code whose logs already exist in other workers' partitions).
    pub(crate) fn set_suppressed(&mut self, suppressed: bool) {
        self.suppressed = suppressed;
    }

    /// All entries, in append order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Consumes the stream.
    pub(crate) fn into_entries(self) -> Vec<LogEntry> {
        self.entries
    }

    /// Removes and returns everything logged so far (section and
    /// suppression state are untouched). The streaming replay executor
    /// drains after each completed micro-range so entries flow to the
    /// incremental merger instead of accumulating until the barrier.
    pub fn drain(&mut self) -> Vec<LogEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Serializes entries to the artifact text format (one entry per line).
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the artifact text format.
    pub fn parse_text(text: &str) -> Vec<LogEntry> {
        text.lines()
            .filter_map(|line| {
                let rest = line.strip_prefix('[')?;
                let close = rest.find(']')?;
                let (sec_str, tail) = rest.split_at(close);
                let tail = tail[1..].trim_start();
                let section = if sec_str == "pre" {
                    Section::Pre
                } else if sec_str == "post" {
                    Section::Post
                } else {
                    Section::Iter(sec_str.strip_prefix("it")?.parse().ok()?)
                };
                let (key, value) = tail.split_once('\t')?;
                Some(LogEntry {
                    key: key.to_string(),
                    value: value.to_string(),
                    section,
                })
            })
            .collect()
    }
}

/// Merges per-worker replay logs back into record order: worker-0 preamble,
/// then all Iter entries sorted by global iteration (stable within an
/// iteration), then the postamble.
///
/// Only the worker owning the final segment emits postamble entries — the
/// interpreter suppresses everyone else's (their post-loop state is
/// intermediate) — so collecting Post entries across all workers yields
/// exactly the true postamble.
pub fn merge_worker_logs(worker_logs: Vec<Vec<LogEntry>>) -> Vec<LogEntry> {
    let mut merged = Vec::new();
    // Preamble from worker 0 (all workers execute it identically).
    if let Some(first) = worker_logs.first() {
        merged.extend(first.iter().filter(|e| e.section == Section::Pre).cloned());
    }
    // Iteration entries from every worker, sorted by global iteration.
    let mut iters: Vec<&LogEntry> = worker_logs
        .iter()
        .flatten()
        .filter(|e| matches!(e.section, Section::Iter(_)))
        .collect();
    iters.sort_by_key(|e| match e.section {
        Section::Iter(g) => g,
        _ => unreachable!(),
    });
    merged.extend(iters.into_iter().cloned());
    // Postamble: exactly one worker emits it (see above).
    merged.extend(
        worker_logs
            .iter()
            .flatten()
            .filter(|e| e.section == Section::Post)
            .cloned(),
    );
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_appends_with_section() {
        let mut s = LogStream::new();
        s.log("a", "1");
        s.set_section(Section::Iter(3));
        s.log("b", "2");
        s.set_section(Section::Post);
        s.log("c", "3");
        assert_eq!(s.entries().len(), 3);
        assert_eq!(s.entries()[0].section, Section::Pre);
        assert_eq!(s.entries()[1].section, Section::Iter(3));
        assert_eq!(s.entries()[2].section, Section::Post);
    }

    #[test]
    fn suppression_gates_output() {
        let mut s = LogStream::new();
        s.set_suppressed(true);
        s.log("hidden", "x");
        s.set_suppressed(false);
        s.log("visible", "y");
        assert_eq!(s.entries().len(), 1);
        assert_eq!(s.entries()[0].key, "visible");
    }

    #[test]
    fn text_roundtrip() {
        let mut s = LogStream::new();
        s.log("loss", "0.5 extra");
        s.set_section(Section::Iter(12));
        s.log("acc", "0.91");
        s.set_section(Section::Post);
        s.log("final", "done");
        let text = s.to_text();
        let parsed = LogStream::parse_text(&text);
        assert_eq!(parsed, s.entries());
    }

    #[test]
    fn parse_ignores_malformed_lines() {
        let parsed = LogStream::parse_text("garbage\n[pre] key\tvalue\nmore garbage\n");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].key, "key");
    }

    #[test]
    fn merge_orders_iterations_across_workers() {
        // Worker 0 owns epochs 0-1 (its postamble is suppressed by the
        // interpreter, so its log has no Post entries); worker 1 owns the
        // final segment and emits the postamble.
        let w0 = vec![
            LogEntry {
                key: "pre".into(),
                value: "p".into(),
                section: Section::Pre,
            },
            LogEntry {
                key: "e".into(),
                value: "0".into(),
                section: Section::Iter(0),
            },
            LogEntry {
                key: "e".into(),
                value: "1".into(),
                section: Section::Iter(1),
            },
        ];
        let w1 = vec![
            LogEntry {
                key: "pre".into(),
                value: "p".into(),
                section: Section::Pre,
            },
            LogEntry {
                key: "e".into(),
                value: "2".into(),
                section: Section::Iter(2),
            },
            LogEntry {
                key: "e".into(),
                value: "3".into(),
                section: Section::Iter(3),
            },
            LogEntry {
                key: "post".into(),
                value: "w1".into(),
                section: Section::Post,
            },
        ];
        let merged = merge_worker_logs(vec![w0, w1]);
        let keys: Vec<&str> = merged.iter().map(|e| e.value.as_str()).collect();
        assert_eq!(keys, vec!["p", "0", "1", "2", "3", "w1"]);
    }

    #[test]
    fn merge_survives_trailing_workers_without_segments() {
        // A worker with no plan produces an empty (fully suppressed) log;
        // the postamble still comes through from the final-segment owner.
        let w0 = vec![
            LogEntry {
                key: "e".into(),
                value: "0".into(),
                section: Section::Iter(0),
            },
            LogEntry {
                key: "post".into(),
                value: "final".into(),
                section: Section::Post,
            },
        ];
        let w1: Vec<LogEntry> = Vec::new();
        let merged = merge_worker_logs(vec![w0, w1]);
        assert_eq!(merged.last().unwrap().value, "final");
    }

    #[test]
    fn merge_is_stable_within_iteration() {
        let w0 = vec![
            LogEntry {
                key: "a".into(),
                value: "1".into(),
                section: Section::Iter(0),
            },
            LogEntry {
                key: "b".into(),
                value: "2".into(),
                section: Section::Iter(0),
            },
        ];
        let merged = merge_worker_logs(vec![w0]);
        assert_eq!(merged[0].key, "a");
        assert_eq!(merged[1].key, "b");
    }

    #[test]
    fn merge_single_worker_is_identity_shape() {
        let w = vec![
            LogEntry {
                key: "p".into(),
                value: "".into(),
                section: Section::Pre,
            },
            LogEntry {
                key: "i".into(),
                value: "".into(),
                section: Section::Iter(0),
            },
            LogEntry {
                key: "q".into(),
                value: "".into(),
                section: Section::Post,
            },
        ];
        let merged = merge_worker_logs(vec![w.clone()]);
        assert_eq!(merged, w);
    }
}
