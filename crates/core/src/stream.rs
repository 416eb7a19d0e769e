//! Streaming log merge — record-order hindsight output while workers are
//! still replaying.
//!
//! The pre-refactor replay driver joined every worker at a barrier and only
//! then called `merge_worker_logs`: a hindsight query blocked on the
//! *slowest* worker even when iteration 0's entries were ready within
//! milliseconds. This module replaces the barrier with an incremental
//! merger: workers send each completed micro-range's entries over a
//! channel, and [`StreamingMerger`] emits the record-order prefix as soon
//! as it becomes contiguous — preamble first, then iterations in global
//! order, then the postamble once the final owner finishes — or, when the
//! plan memoized it, the record log's postamble entries as soon as the
//! prefix reaches the loop's end. A sampled replay's ranges never become
//! contiguous; they flush in iteration order when the merge finishes (a
//! memoized postamble with them, if the last iteration was sampled). The
//! deferred fingerprint check (paper §5.2.2) runs incrementally on the
//! same prefix, so anomalies surface with the entries that caused them,
//! not at the end.
//!
//! The merge is byte-identical to the old barrier merge
//! ([`merge_worker_logs`](crate::logstream::merge_worker_logs)) for every
//! partitioning and steal order — property-tested in `tests/proptests.rs`.

use crate::logstream::{LogEntry, Section};
use crate::replay::deferred_check;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};

/// One message from a replay worker to the merger.
#[derive(Debug)]
pub enum StreamMsg {
    /// Preamble entries (every worker executes the preamble; the merger
    /// keeps worker 0's, like the barrier merge did).
    Pre {
        /// Sending worker.
        pid: usize,
        /// Entries logged before the main loop.
        entries: Vec<LogEntry>,
    },
    /// Total main-loop iterations, announced once the queue is seeded.
    Total {
        /// One past the last global iteration.
        n_iters: u64,
    },
    /// A completed work range and its log entries.
    Range {
        /// First global iteration (inclusive).
        start: u64,
        /// One past the last global iteration.
        end: u64,
        /// True when the executing worker stole the range.
        stolen: bool,
        /// Entries logged by the range's work iterations.
        entries: Vec<LogEntry>,
    },
    /// Post-loop entries (non-empty only from the final-state owner).
    Post {
        /// Entries logged after the main loop.
        entries: Vec<LogEntry>,
    },
}

/// A worker's handle for streaming completed ranges to the merger.
#[derive(Clone)]
pub struct RangeSink {
    tx: Sender<StreamMsg>,
}

impl RangeSink {
    /// Sink over a channel sender.
    pub fn new(tx: Sender<StreamMsg>) -> Self {
        RangeSink { tx }
    }

    /// Sends one message; a closed receiver (replay driver gone) is
    /// ignored — the worker's own error path reports the failure.
    pub fn send(&self, msg: StreamMsg) {
        let _ = self.tx.send(msg);
    }
}

/// Progress and output events delivered to a streaming replay's observer.
#[derive(Debug)]
pub enum StreamEvent<'a> {
    /// A record-order chunk of the merged log (never re-delivered).
    Entries(&'a [LogEntry]),
    /// An anomaly found by the incremental deferred check.
    Anomaly(&'a str),
    /// Progress counters after a worker completed a range.
    Progress {
        /// Iterations completed across all workers (not necessarily
        /// contiguous).
        iterations_done: u64,
        /// Total main-loop iterations (0 until the queue is seeded).
        iterations_total: u64,
        /// Ranges that moved between workers so far.
        steals: u64,
    },
}

/// Incremental record-order merger with the deferred fingerprint check
/// folded in. Feed [`StreamMsg`]s (any arrival order); record-order entries
/// come out of the `on_event` callback as soon as the leading contiguous
/// prefix is complete.
pub struct StreamingMerger<'a> {
    /// Record log grouped by section, for the incremental deferred check.
    record_by_section: BTreeMap<Section, Vec<LogEntry>>,
    on_event: Box<dyn FnMut(StreamEvent<'_>) + 'a>,
    /// Replay start on the [`flor_obs::clock`] timeline, for
    /// time-to-first-entry.
    t0_ns: u64,
    /// Completed-but-not-yet-emittable ranges, keyed by start.
    pending: BTreeMap<u64, (u64, Vec<LogEntry>)>,
    /// Next iteration the contiguous prefix needs.
    next: u64,
    pre: Option<Vec<LogEntry>>,
    pre_emitted: bool,
    post: Vec<LogEntry>,
    /// Recorded postamble entries standing in for a postamble replay did
    /// not run, until the prefix reaches `n_iters`.
    memo_post: Option<Vec<LogEntry>>,
    merged: Vec<LogEntry>,
    anomalies: Vec<String>,
    n_iters: Option<u64>,
    iterations_done: u64,
    steals: u64,
    first_entry_ns: Option<u64>,
}

impl<'a> StreamingMerger<'a> {
    /// Merger checking against `record_log`, reporting to `on_event`,
    /// timing first emission relative to `t0_ns` (the replay start, on the
    /// [`flor_obs::clock`] timeline).
    pub fn new(
        record_log: &[LogEntry],
        t0_ns: u64,
        on_event: impl FnMut(StreamEvent<'_>) + 'a,
    ) -> Self {
        let mut record_by_section: BTreeMap<Section, Vec<LogEntry>> = BTreeMap::new();
        for e in record_log {
            record_by_section
                .entry(e.section)
                .or_default()
                .push(e.clone());
        }
        StreamingMerger {
            record_by_section,
            on_event: Box::new(on_event),
            t0_ns,
            pending: BTreeMap::new(),
            next: 0,
            pre: None,
            pre_emitted: false,
            post: Vec::new(),
            memo_post: None,
            merged: Vec::new(),
            anomalies: Vec::new(),
            n_iters: None,
            iterations_done: 0,
            steals: 0,
            first_entry_ns: None,
        }
    }

    /// The replay does not run the postamble: emit the record log's `Post`
    /// entries in its place, right after iteration `n_iters - 1`'s (and
    /// so never, in a sampled replay that skips that iteration).
    pub(crate) fn memoize_post(&mut self) {
        let recorded = self.record_by_section.get(&Section::Post);
        self.memo_post = Some(recorded.cloned().unwrap_or_default());
    }

    /// Feeds one worker message, emitting whatever prefix it completes.
    pub fn push(&mut self, msg: StreamMsg) {
        match msg {
            StreamMsg::Pre { pid, entries } => {
                if pid == 0 {
                    self.pre = Some(entries);
                }
                self.advance();
            }
            StreamMsg::Total { n_iters } => {
                self.n_iters = Some(n_iters);
                // An empty loop's prefix is already complete.
                self.advance();
            }
            StreamMsg::Range {
                start,
                end,
                stolen,
                entries,
            } => {
                self.iterations_done += end - start;
                if stolen {
                    self.steals += 1;
                }
                self.pending.insert(start, (end, entries));
                self.advance();
                let (done, total, steals) =
                    (self.iterations_done, self.n_iters.unwrap_or(0), self.steals);
                (self.on_event)(StreamEvent::Progress {
                    iterations_done: done,
                    iterations_total: total,
                    steals,
                });
            }
            StreamMsg::Post { entries } => {
                self.post.extend(entries);
            }
        }
    }

    /// Emits the contiguous prefix currently available.
    fn advance(&mut self) {
        // Nothing may precede worker 0's preamble.
        if !self.pre_emitted {
            let Some(pre) = self.pre.take() else {
                return;
            };
            self.pre_emitted = true;
            self.check_section(Section::Pre, &pre);
            self.emit(pre);
        }
        while let Some((&start, _)) = self.pending.first_key_value() {
            if start > self.next {
                break;
            }
            let (start, (end, entries)) = self.pending.pop_first().expect("non-empty");
            debug_assert_eq!(start, self.next, "ranges are disjoint and ordered");
            // Entries within a range arrive in iteration order (the worker
            // appended them while walking its iterations ascending), so one
            // forward pass slices each iteration's run without cloning —
            // the merge stays O(entries), not O(iterations × entries).
            let mut idx = 0usize;
            for g in start..end {
                let lo = idx;
                while idx < entries.len() && entries[idx].section == Section::Iter(g) {
                    idx += 1;
                }
                self.check_section(Section::Iter(g), &entries[lo..idx]);
            }
            self.next = end;
            self.emit(entries);
        }
        if self.n_iters == Some(self.next) {
            if let Some(post) = self.memo_post.take() {
                self.emit(post);
            }
        }
    }

    /// Runs the deferred check for one completed section.
    fn check_section(&mut self, section: Section, replayed: &[LogEntry]) {
        let Some(recorded) = self.record_by_section.get(&section) else {
            return;
        };
        for a in deferred_check(recorded, replayed) {
            (self.on_event)(StreamEvent::Anomaly(&a));
            self.anomalies.push(a);
        }
    }

    fn emit(&mut self, entries: Vec<LogEntry>) {
        if entries.is_empty() {
            return;
        }
        if self.first_entry_ns.is_none() {
            self.first_entry_ns = Some(flor_obs::clock::since_ns(self.t0_ns));
        }
        let span = flor_obs::span(flor_obs::Category::StreamMerge, "emit");
        (self.on_event)(StreamEvent::Entries(&entries));
        drop(span);
        self.merged.extend(entries);
    }

    /// Drains a channel until every worker sender is dropped.
    pub fn run(&mut self, rx: &Receiver<StreamMsg>) {
        while let Ok(msg) = rx.recv() {
            self.push(msg);
        }
    }

    /// Finishes the merge: emits any pre that never emitted because no
    /// ranges arrived, the ranges a gap kept pending (a sampled replay's),
    /// in iteration order, and the postamble — returning the full merged
    /// log, the anomalies found, and the time-to-first-entry (ns since
    /// `t0`; 0 when nothing was ever emitted).
    pub fn finish(mut self) -> (Vec<LogEntry>, Vec<String>, u64) {
        // A replay with zero iterations still has a preamble.
        if !self.pre_emitted {
            self.pre_emitted = true;
            if let Some(pre) = self.pre.take() {
                self.check_section(Section::Pre, &pre);
                self.emit(pre);
            }
        }
        while let Some(&start) = self.pending.keys().next() {
            self.next = start;
            self.advance();
        }
        let post = std::mem::take(&mut self.post);
        self.check_section(Section::Post, &post);
        self.emit(post);
        (
            self.merged,
            self.anomalies,
            self.first_entry_ns.unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logstream::merge_worker_logs;

    fn e(key: &str, val: &str, section: Section) -> LogEntry {
        LogEntry {
            key: key.into(),
            value: val.into(),
            section,
        }
    }

    fn collect_merge(record: &[LogEntry], msgs: Vec<StreamMsg>) -> (Vec<LogEntry>, Vec<String>) {
        let mut streamed = Vec::new();
        let mut merger = StreamingMerger::new(record, flor_obs::clock::now_ns(), |ev| {
            if let StreamEvent::Entries(chunk) = ev {
                streamed.extend(chunk.iter().cloned());
            }
        });
        for m in msgs {
            merger.push(m);
        }
        let (merged, anomalies, _) = merger.finish();
        assert_eq!(streamed, merged, "callback stream equals returned log");
        (merged, anomalies)
    }

    #[test]
    fn out_of_order_ranges_emit_in_record_order() {
        let msgs = vec![
            StreamMsg::Total { n_iters: 4 },
            StreamMsg::Range {
                start: 2,
                end: 4,
                stolen: true,
                entries: vec![e("x", "2", Section::Iter(2)), e("x", "3", Section::Iter(3))],
            },
            StreamMsg::Pre {
                pid: 0,
                entries: vec![e("pre", "p", Section::Pre)],
            },
            StreamMsg::Range {
                start: 0,
                end: 2,
                stolen: false,
                entries: vec![e("x", "0", Section::Iter(0)), e("x", "1", Section::Iter(1))],
            },
            StreamMsg::Post {
                entries: vec![e("post", "q", Section::Post)],
            },
        ];
        let (merged, anomalies) = collect_merge(&[], msgs);
        let vals: Vec<&str> = merged.iter().map(|x| x.value.as_str()).collect();
        assert_eq!(vals, vec!["p", "0", "1", "2", "3", "q"]);
        assert!(anomalies.is_empty());
    }

    #[test]
    fn memoized_postamble_streams_after_the_last_iteration() {
        let record = vec![
            e("loss", "0", Section::Iter(0)),
            e("loss", "1", Section::Iter(1)),
            e("accuracy", "a", Section::Post),
        ];
        let range = |g: u64| StreamMsg::Range {
            start: g,
            end: g + 1,
            stolen: false,
            entries: vec![e("probe", &g.to_string(), Section::Iter(g))],
        };
        let run = |ranges: Vec<StreamMsg>| {
            let mut streamed = Vec::new();
            let mut merger = StreamingMerger::new(&record, flor_obs::clock::now_ns(), |ev| {
                if let StreamEvent::Entries(chunk) = ev {
                    streamed.extend(chunk.iter().map(|x| x.value.clone()));
                }
            });
            merger.memoize_post();
            merger.push(StreamMsg::Total { n_iters: 2 });
            merger.push(StreamMsg::Pre {
                pid: 0,
                entries: Vec::new(),
            });
            for r in ranges {
                merger.push(r);
            }
            drop(merger);
            streamed
        };
        // Out before `finish`: no wait on worker joins.
        assert_eq!(run(vec![range(1), range(0)]), ["0", "1", "a"]);
        // A sample that skips the last iteration never reaches the end.
        assert_eq!(run(vec![range(0)]), ["0"]);
    }

    #[test]
    fn equals_barrier_merge_on_a_static_partition() {
        let w0 = vec![
            e("pre", "p", Section::Pre),
            e("k", "0", Section::Iter(0)),
            e("k", "1", Section::Iter(1)),
        ];
        let w1 = vec![
            e("pre", "p", Section::Pre),
            e("k", "2", Section::Iter(2)),
            e("post", "done", Section::Post),
        ];
        let barrier = merge_worker_logs(vec![w0.clone(), w1.clone()]);
        let msgs = vec![
            StreamMsg::Pre {
                pid: 1,
                entries: vec![e("pre", "p", Section::Pre)],
            },
            StreamMsg::Pre {
                pid: 0,
                entries: vec![e("pre", "p", Section::Pre)],
            },
            StreamMsg::Range {
                start: 0,
                end: 2,
                stolen: false,
                entries: w0[1..].to_vec(),
            },
            StreamMsg::Range {
                start: 2,
                end: 3,
                stolen: false,
                entries: vec![w1[1].clone()],
            },
            StreamMsg::Post {
                entries: vec![w1[2].clone()],
            },
        ];
        let (merged, _) = collect_merge(&[], msgs);
        assert_eq!(merged, barrier);
    }

    #[test]
    fn incremental_check_flags_divergence_with_section() {
        let record = vec![e("loss", "0.5", Section::Iter(0))];
        let msgs = vec![
            StreamMsg::Pre {
                pid: 0,
                entries: Vec::new(),
            },
            StreamMsg::Range {
                start: 0,
                end: 1,
                stolen: false,
                entries: vec![e("loss", "0.9", Section::Iter(0))],
            },
        ];
        let (_, anomalies) = collect_merge(&record, msgs);
        assert_eq!(anomalies.len(), 1);
        assert!(anomalies[0].contains("loss"), "{anomalies:?}");
    }

    #[test]
    fn incremental_check_matches_barrier_deferred_check() {
        let record = vec![
            e("a", "1", Section::Pre),
            e("loss", "0.5", Section::Iter(0)),
            e("loss", "0.4", Section::Iter(1)),
            e("skipped", "x", Section::Iter(1)),
            e("final", "f", Section::Post),
        ];
        // Replay skips "skipped", reproduces losses, diverges on "final".
        let replay_sections: Vec<LogEntry> = vec![
            e("a", "1", Section::Pre),
            e("loss", "0.5", Section::Iter(0)),
            e("loss", "0.4", Section::Iter(1)),
            e("final", "DIFFERENT", Section::Post),
        ];
        let barrier = deferred_check(&record, &replay_sections);
        let msgs = vec![
            StreamMsg::Pre {
                pid: 0,
                entries: vec![replay_sections[0].clone()],
            },
            StreamMsg::Range {
                start: 0,
                end: 1,
                stolen: false,
                entries: vec![replay_sections[1].clone()],
            },
            StreamMsg::Range {
                start: 1,
                end: 2,
                stolen: false,
                entries: vec![replay_sections[2].clone()],
            },
            StreamMsg::Post {
                entries: vec![replay_sections[3].clone()],
            },
        ];
        let (_, anomalies) = collect_merge(&record, msgs);
        assert_eq!(anomalies, barrier);
    }

    #[test]
    fn gapped_ranges_flush_in_order_and_are_checked() {
        let record = vec![e("loss", "0.5", Section::Iter(3))];
        let range = |g: u64, val: &str| StreamMsg::Range {
            start: g,
            end: g + 1,
            stolen: false,
            entries: vec![e("loss", val, Section::Iter(g))],
        };
        let msgs = vec![
            StreamMsg::Pre {
                pid: 0,
                entries: Vec::new(),
            },
            range(3, "0.9"),
            range(1, "0.7"),
        ];
        let (merged, anomalies) = collect_merge(&record, msgs);
        let vals: Vec<&str> = merged.iter().map(|x| x.value.as_str()).collect();
        assert_eq!(vals, vec!["0.7", "0.9"]);
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert!(anomalies[0].contains("Iter(3)"), "{anomalies:?}");
    }

    #[test]
    fn first_entry_timing_precedes_finish() {
        let mut merger = StreamingMerger::new(&[], flor_obs::clock::now_ns(), |_| {});
        assert_eq!(merger.first_entry_ns, None);
        merger.push(StreamMsg::Pre {
            pid: 0,
            entries: vec![e("p", "1", Section::Pre)],
        });
        let early = merger.first_entry_ns.expect("pre emitted immediately");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (_, _, first) = merger.finish();
        assert_eq!(first, early, "finish must not reset the first-entry clock");
    }

    #[test]
    fn empty_replay_still_finishes_cleanly() {
        let (merged, anomalies) = collect_merge(&[], Vec::new());
        assert!(merged.is_empty());
        assert!(anomalies.is_empty());
    }

    #[test]
    fn progress_counts_iterations_and_steals() {
        let mut events = Vec::new();
        let mut merger = StreamingMerger::new(&[], flor_obs::clock::now_ns(), |ev| {
            if let StreamEvent::Progress {
                iterations_done,
                iterations_total,
                steals,
            } = ev
            {
                events.push((iterations_done, iterations_total, steals));
            }
        });
        merger.push(StreamMsg::Total { n_iters: 6 });
        merger.push(StreamMsg::Range {
            start: 4,
            end: 6,
            stolen: true,
            entries: Vec::new(),
        });
        merger.push(StreamMsg::Range {
            start: 0,
            end: 4,
            stolen: false,
            entries: Vec::new(),
        });
        drop(merger);
        assert_eq!(events, vec![(2, 6, 1), (6, 6, 1)]);
    }
}
