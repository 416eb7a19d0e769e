//! Trace exporters: Chrome `trace_event` JSON and flamegraph-folded text.
//!
//! The Chrome format (load `chrome://tracing` or <https://ui.perfetto.dev>
//! and drop the file in) renders one horizontal lane per `tid`; we map
//! lanes to replay worker pids (plus role lanes for the merge driver and
//! materializer workers), so a traced query shows range execution, steals,
//! chain restores, and group commits side by side on one timeline. The folded form (`stack;frames;joined count`) feeds
//! `flamegraph.pl`-style tooling and sums *self* time per unique stack.

use crate::json::JsonWriter;
use crate::trace::{Event, EventKind, Trace};
use std::collections::BTreeMap;

impl Trace {
    /// Serializes as Chrome `trace_event` JSON (object form:
    /// `{"traceEvents": […]}` plus thread-name metadata per lane).
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("traceEvents");
        w.begin_arr();
        // Lane metadata first: Chrome sorts and labels lanes from these.
        for (lane, name) in &self.lane_names {
            w.begin_obj();
            w.field_str("name", "thread_name");
            w.field_str("ph", "M");
            w.field_u64("pid", 1);
            w.field_u64("tid", u64::from(*lane));
            w.key("args");
            w.begin_obj();
            w.field_str("name", name);
            w.end_obj();
            w.end_obj();
        }
        for ev in &self.events {
            w.begin_obj();
            w.field_str("name", ev.name);
            w.field_str("cat", ev.cat.as_str());
            w.field_u64("pid", 1);
            w.field_u64("tid", u64::from(ev.lane));
            // Chrome timestamps are microseconds; keep ns precision with
            // fractional µs.
            w.field_f64("ts", ev.start_ns as f64 / 1000.0);
            match ev.kind {
                EventKind::Complete => {
                    w.field_str("ph", "X");
                    w.field_f64("dur", ev.dur_ns as f64 / 1000.0);
                }
                EventKind::Instant => {
                    w.field_str("ph", "i");
                    // Thread-scoped instant: draws on its lane only.
                    w.field_str("s", "t");
                }
            }
            w.key("args");
            w.begin_obj();
            w.field_u64("arg0", ev.args[0]);
            w.field_u64("arg1", ev.args[1]);
            w.field_u64("depth", u64::from(ev.depth));
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        w.field_u64("droppedEvents", self.dropped);
        w.end_obj();
        w.finish()
    }

    /// Serializes as flamegraph-folded text: one `lane;frame;…;frame N`
    /// line per unique stack, where `N` is the stack's *self* time in ns
    /// (children subtracted). Stacks are reconstructed from span
    /// containment per lane; instants are skipped.
    pub fn to_folded(&self) -> String {
        // Self time per unique stack path. i128 because a child span can
        // transiently overdraw its parent before the parent's own
        // duration lands (clamped at emit).
        let mut self_ns: BTreeMap<String, i128> = BTreeMap::new();
        let mut lanes: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
        for ev in &self.events {
            if ev.kind == EventKind::Complete {
                lanes.entry(ev.lane).or_default().push(ev);
            }
        }
        for (lane, events) in &lanes {
            let label = self
                .lane_names
                .iter()
                .find(|(l, _)| l == lane)
                .map(|(_, n)| n.clone())
                .unwrap_or_else(|| format!("lane-{lane}"));
            // Events arrive sorted by (start, -dur): parents before their
            // children. Reconstruct stacks by interval containment.
            let mut stack: Vec<(u64, String)> = Vec::new(); // (end_ns, path)
            for ev in events {
                while let Some((end, _)) = stack.last() {
                    if *end <= ev.start_ns {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let path = match stack.last() {
                    Some((_, parent)) => format!("{parent};{}", ev.name),
                    None => format!("{label};{}", ev.name),
                };
                *self_ns.entry(path.clone()).or_insert(0) += i128::from(ev.dur_ns);
                if let Some((_, parent)) = stack.last() {
                    *self_ns.entry(parent.clone()).or_insert(0) -= i128::from(ev.dur_ns);
                }
                stack.push((ev.start_ns + ev.dur_ns, path));
            }
        }
        let mut out = String::new();
        for (path, ns) in &self_ns {
            out.push_str(path);
            out.push(' ');
            out.push_str(&ns.max(&0).to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::trace::Category;

    fn ev(
        lane: u32,
        name: &'static str,
        cat: Category,
        start: u64,
        dur: u64,
        kind: EventKind,
    ) -> Event {
        Event {
            cat,
            name,
            start_ns: start,
            dur_ns: dur,
            kind,
            args: [0; 2],
            lane,
            depth: 0,
        }
    }

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                ev(
                    0,
                    "range",
                    Category::RangeExec,
                    100,
                    1000,
                    EventKind::Complete,
                ),
                ev(
                    0,
                    "restore",
                    Category::RestoreChain,
                    200,
                    300,
                    EventKind::Complete,
                ),
                ev(1, "steal", Category::Steal, 450, 0, EventKind::Instant),
                ev(
                    1,
                    "range",
                    Category::RangeExec,
                    500,
                    400,
                    EventKind::Complete,
                ),
            ],
            dropped: 2,
            lane_names: vec![(0, "worker-0".into()), (1, "worker-1".into())],
        }
    }

    #[test]
    fn chrome_json_roundtrips_with_lanes_and_phases() {
        let trace = sample_trace();
        let v = parse(&trace.to_chrome_json()).expect("chrome JSON parses");
        let events = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 2 thread_name metadata + 4 events.
        assert_eq!(events.len(), 6);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        // ns → fractional µs: 100ns start is ts 0.1.
        assert_eq!(complete[0].get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(complete[0].get("dur").and_then(Json::as_f64), Some(1.0));
        let instants: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("droppedEvents").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn folded_subtracts_child_self_time() {
        let trace = sample_trace();
        let folded = trace.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        // worker-0: range has restore nested inside → self 700, child 300.
        assert!(lines.contains(&"worker-0;range 700"), "folded:\n{folded}");
        assert!(
            lines.contains(&"worker-0;range;restore 300"),
            "folded:\n{folded}"
        );
        assert!(lines.contains(&"worker-1;range 400"), "folded:\n{folded}");
        // The instant contributes no folded line.
        assert_eq!(lines.len(), 3);
    }
}
