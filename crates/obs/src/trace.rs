//! Spans and instants into per-thread lock-free ring buffers.
//!
//! The contract that keeps the 2µs submit path and the 1µs restore read
//! honest: with no [`TraceSession`] live, [`span`] and [`instant`] cost a
//! single `Relaxed` atomic load and return inert values — no clock read,
//! no thread-local access, no allocation. With a session live, each
//! thread records fixed-size [`Event`]s into its own SPSC ring (this
//! thread writes, the session's `finish` drains), so workers never
//! contend on a lock in the replay inner loop. Rings that fill drop
//! events and count them ([`Trace::dropped`]) instead of blocking.

use crate::clock;
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Events a thread can buffer before the ring drops (and counts) the
/// overflow. 16Ki × 64B = 1MiB per traced thread, allocated lazily on the
/// thread's first recorded event.
const RING_CAP: usize = 1 << 14;

/// Auto-assigned lanes start here so explicit lanes (replay worker pids,
/// the merger/driver, materializer workers) never collide with them.
const AUTO_LANE_BASE: u32 = 1 << 16;

/// Lane of the replay driver thread (runs the streaming merger). Replay
/// workers claim their pid as lane, so role lanes start well above any
/// realistic worker count.
pub const LANE_DRIVER: u32 = 1000;
/// First lane of the background materializer pool (worker `i` gets
/// `LANE_MATERIALIZER_BASE + i`).
pub const LANE_MATERIALIZER_BASE: u32 = 2000;
/// First lane of the registry scheduler pool.
pub const LANE_SCHEDULER_BASE: u32 = 3000;

/// What a span or instant was doing — the `cat` field of the Chrome
/// trace, and the unit the acceptance tests count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Category {
    /// Executing a block body and deciding/submitting its checkpoint
    /// (record mode), or re-executing it for hindsight output (replay —
    /// the logical log re-generation is literally re-recording).
    #[default]
    Record,
    /// Durable writes: store write-batch commits, background group
    /// commits, query-cache fills.
    Commit,
    /// Physical recovery: checkpoint restores and delta-chain walks.
    RestoreChain,
    /// A replay worker executing a micro-range (init + work phases).
    RangeExec,
    /// A range moving between replay workers.
    Steal,
    /// The streaming merger emitting a record-order prefix.
    StreamMerge,
    /// Segment compaction / GC.
    Compact,
    /// Scheduler job lifecycle (queued → running → terminal).
    Job,
    /// The discrete-event simulator's phases.
    Sim,
    /// Lowering a program to bytecode (one span per compiled module).
    Compile,
    /// Bytecode VM executing a range of instructions.
    VmExec,
    /// Backward program slicing: computing the dependency cone of the
    /// query's log statements before lowering.
    Slice,
    /// Storage-tier events: a segment or dedup blob read into heap
    /// because the kernel refused to map it (`mmap_fallback:<kind>`
    /// instants).
    Tier,
    /// Query-service connections: accepts, socket reads, protocol
    /// dispatch, and backpressured writes.
    Serve,
}

impl Category {
    /// All categories, for exporters and tests.
    pub const ALL: [Category; 14] = [
        Category::Record,
        Category::Commit,
        Category::RestoreChain,
        Category::RangeExec,
        Category::Steal,
        Category::StreamMerge,
        Category::Compact,
        Category::Job,
        Category::Sim,
        Category::Compile,
        Category::VmExec,
        Category::Slice,
        Category::Tier,
        Category::Serve,
    ];

    /// Stable name used in exports (`cat` in Chrome traces).
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Record => "record",
            Category::Commit => "commit",
            Category::RestoreChain => "restore-chain",
            Category::RangeExec => "range-exec",
            Category::Steal => "steal",
            Category::StreamMerge => "stream-merge",
            Category::Compact => "compact",
            Category::Job => "job",
            Category::Sim => "sim",
            Category::Compile => "compile",
            Category::VmExec => "vm-exec",
            Category::Slice => "slice",
            Category::Tier => "tier",
            Category::Serve => "serve",
        }
    }
}

/// Complete span or point-in-time marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration (`ph: "X"` in Chrome traces).
    Complete,
    /// An instant (`ph: "i"`).
    Instant,
}

/// One recorded event. Fixed-size and `Copy` so ring slots never
/// allocate; `name` is `&'static str` by design (no formatting on the
/// hot path — put variable data in `args`).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Category (the Chrome `cat`).
    pub cat: Category,
    /// Span name (the Chrome `name`).
    pub name: &'static str,
    /// Start, ns on the [`clock`] timeline.
    pub start_ns: u64,
    /// Duration ns (0 for instants).
    pub dur_ns: u64,
    /// Complete span or instant.
    pub kind: EventKind,
    /// Free-form numeric payload (range bounds, byte counts, job ids…).
    pub args: [u64; 2],
    /// Lane (Chrome `tid`): the replay worker pid or a role lane set via
    /// [`set_lane`]; auto-assigned per thread otherwise.
    pub lane: u32,
    /// Span nesting depth on this thread at record time (0 = top level).
    pub depth: u32,
}

impl Default for Event {
    fn default() -> Self {
        Event {
            cat: Category::Record,
            name: "",
            start_ns: 0,
            dur_ns: 0,
            kind: EventKind::Instant,
            args: [0; 2],
            lane: 0,
            depth: 0,
        }
    }
}

/// Per-thread SPSC ring: the owning thread appends, `drain_all` (under
/// the session lock, after disabling) consumes. `head` is published with
/// `Release` after the slot write, so a reader that `Acquire`-loads it
/// sees fully written events; the writer never overtakes `tail`.
struct ThreadBuf {
    slots: Box<[UnsafeCell<Event>]>,
    /// Next write position (monotonic; slot = head % RING_CAP).
    head: AtomicUsize,
    /// First unconsumed position (only the drainer advances it).
    tail: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: the UnsafeCell slots follow the SPSC protocol above — a slot is
// written only by the owning thread before the Release store of `head`,
// and read only at positions below an Acquire load of `head`.
unsafe impl Sync for ThreadBuf {}
unsafe impl Send for ThreadBuf {}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            slots: (0..RING_CAP)
                .map(|_| UnsafeCell::new(Event::default()))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append from the owning thread.
    fn push(&self, ev: Event) {
        let h = self.head.load(Ordering::Relaxed);
        if h.wrapping_sub(self.tail.load(Ordering::Acquire)) >= RING_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: slot h is unpublished (>= head) and unread (< tail+CAP).
        unsafe { *self.slots[h % RING_CAP].get() = ev };
        self.head.store(h.wrapping_add(1), Ordering::Release);
    }

    /// Consume everything published so far (drainer side).
    fn drain(&self, out: &mut Vec<Event>) -> u64 {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Acquire);
        let mut i = t;
        while i != h {
            // SAFETY: positions in [tail, head) are published and not
            // being written.
            out.push(unsafe { *self.slots[i % RING_CAP].get() });
            i = i.wrapping_add(1);
        }
        self.tail.store(h, Ordering::Release);
        self.dropped.swap(0, Ordering::Relaxed)
    }
}

/// The one flag the disabled path pays for.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_AUTO_LANE: AtomicU32 = AtomicU32::new(AUTO_LANE_BASE);

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static R: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

fn lane_names() -> &'static Mutex<Vec<(u32, String)>> {
    static N: OnceLock<Mutex<Vec<(u32, String)>>> = OnceLock::new();
    N.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static TLS_BUF: UnsafeCell<Option<Arc<ThreadBuf>>> = const { UnsafeCell::new(None) };
    static TLS_LANE: Cell<u32> = const { Cell::new(u32::MAX) };
    static TLS_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// True while a [`TraceSession`] is live. One relaxed load — the whole
/// cost of instrumentation when tracing is off.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Names this thread's lane for exports: replay workers call
/// `set_lane(pid, "worker-N")`, the merge driver and materializer workers
/// claim role lanes. Unset threads get a distinct auto lane on first use.
pub fn set_lane(lane: u32, name: &str) {
    TLS_LANE.with(|l| l.set(lane));
    let mut names = lane_names().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(slot) = names.iter_mut().find(|(l, _)| *l == lane) {
        slot.1 = name.to_string();
    } else {
        names.push((lane, name.to_string()));
    }
}

fn current_lane() -> u32 {
    TLS_LANE.with(|l| {
        let v = l.get();
        if v != u32::MAX {
            return v;
        }
        let auto = NEXT_AUTO_LANE.fetch_add(1, Ordering::Relaxed);
        l.set(auto);
        auto
    })
}

fn record_event(mut ev: Event) {
    ev.lane = current_lane();
    TLS_BUF.with(|cell| {
        // SAFETY: TLS_BUF is only touched from this thread, and the
        // closure never re-enters record_event.
        let slot = unsafe { &mut *cell.get() };
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf::new());
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(buf.clone());
            buf
        });
        buf.push(ev);
    });
}

/// RAII span: records one [`EventKind::Complete`] event on drop. Inert
/// (and free beyond the construction-time flag check) when tracing is
/// disabled.
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    start_ns: u64,
    cat: Category,
    name: &'static str,
    args: [u64; 2],
    active: bool,
}

impl Span {
    /// Attaches numeric arguments (range bounds, bytes, ids) to the span.
    #[inline]
    pub fn set_args(&mut self, a0: u64, a1: u64) {
        if self.active {
            self.args = [a0, a1];
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let depth = TLS_DEPTH.with(|d| {
            let v = d.get().saturating_sub(1);
            d.set(v);
            v
        });
        record_event(Event {
            cat: self.cat,
            name: self.name,
            start_ns: self.start_ns,
            dur_ns: clock::since_ns(self.start_ns),
            kind: EventKind::Complete,
            args: self.args,
            lane: 0,
            depth,
        });
    }
}

/// Opens a span; bind it (`let _span = …`) so it closes at scope exit.
#[inline]
pub fn span(cat: Category, name: &'static str) -> Span {
    if !enabled() {
        return Span {
            start_ns: 0,
            cat,
            name,
            args: [0; 2],
            active: false,
        };
    }
    TLS_DEPTH.with(|d| d.set(d.get() + 1));
    Span {
        start_ns: clock::now_ns(),
        cat,
        name,
        args: [0; 2],
        active: true,
    }
}

/// Records a point-in-time event (steal decisions, job transitions).
#[inline]
pub fn instant(cat: Category, name: &'static str, a0: u64, a1: u64) {
    if !enabled() {
        return;
    }
    record_event(Event {
        cat,
        name,
        start_ns: clock::now_ns(),
        dur_ns: 0,
        kind: EventKind::Instant,
        args: [a0, a1],
        lane: 0,
        depth: TLS_DEPTH.with(|d| d.get()),
    });
}

/// A drained trace: every thread's events, merged and time-sorted.
#[derive(Debug, Default)]
pub struct Trace {
    /// Events sorted by `(start_ns, -dur_ns)` so parents precede children.
    pub events: Vec<Event>,
    /// Events lost to ring overflow across all threads.
    pub dropped: u64,
    /// `(lane, name)` pairs registered via [`set_lane`].
    pub lane_names: Vec<(u32, String)>,
}

impl Trace {
    /// Distinct lanes observed, ascending.
    pub fn lanes(&self) -> Vec<u32> {
        let mut lanes: Vec<u32> = self.events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes
    }

    /// Distinct categories observed, in [`Category::ALL`] order.
    pub fn categories(&self) -> Vec<Category> {
        Category::ALL
            .into_iter()
            .filter(|c| self.events.iter().any(|e| e.cat == *c))
            .collect()
    }

    /// Events on one lane, in the trace's time order.
    pub fn lane_events(&self, lane: u32) -> Vec<&Event> {
        self.events.iter().filter(|e| e.lane == lane).collect()
    }
}

/// A global tracing window. `start` resets all ring buffers and raises
/// the flag; `finish` lowers it and drains every thread's ring into a
/// [`Trace`]. Sessions serialize on a process-wide mutex (a second
/// `start` blocks until the first finishes), so concurrent tests or jobs
/// cannot interleave their events.
pub struct TraceSession {
    _guard: std::sync::MutexGuard<'static, ()>,
}

static SESSION: Mutex<()> = Mutex::new(());

impl Drop for TraceSession {
    fn drop(&mut self) {
        // A session abandoned without `finish` (error-path unwind) must
        // still lower the flag before releasing the session mutex.
        ENABLED.store(false, Ordering::Release);
    }
}

impl TraceSession {
    /// Opens the tracing window.
    pub fn start() -> TraceSession {
        let guard = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        // Discard anything buffered since the last session (spans that
        // closed after their session's drain, stale worker tails).
        let mut scratch = Vec::new();
        for buf in registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            scratch.clear();
            buf.drain(&mut scratch);
        }
        ENABLED.store(true, Ordering::Release);
        TraceSession { _guard: guard }
    }

    /// Closes the window and returns everything recorded inside it.
    /// Threads still running keep their rings (cheaply re-used by the
    /// next session); rings whose threads exited are garbage-collected.
    pub fn finish(self) -> Trace {
        ENABLED.store(false, Ordering::Release);
        let mut events = Vec::new();
        let mut dropped = 0u64;
        {
            let mut bufs = registry().lock().unwrap_or_else(PoisonError::into_inner);
            for buf in bufs.iter() {
                dropped += buf.drain(&mut events);
            }
            // Only the registry holds a ring whose thread is gone.
            bufs.retain(|b| Arc::strong_count(b) > 1);
        }
        events.sort_by_key(|e| (e.start_ns, u64::MAX - e.dur_ns));
        let lane_names = lane_names()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        Trace {
            events,
            dropped,
            lane_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let _ = span(Category::Record, "outside-session");
        instant(Category::Steal, "outside-session", 0, 0);
        let session = TraceSession::start();
        let trace = session.finish();
        assert!(
            trace.events.iter().all(|e| e.name != "outside-session"),
            "events recorded while disabled leaked into the session"
        );
    }

    #[test]
    fn session_captures_nested_spans_and_instants() {
        let session = TraceSession::start();
        {
            let mut outer = span(Category::RangeExec, "outer");
            outer.set_args(3, 9);
            instant(Category::Steal, "grab", 5, 7);
            let _inner = span(Category::RestoreChain, "inner");
        }
        let trace = session.finish();
        let outer = trace.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = trace.events.iter().find(|e| e.name == "inner").unwrap();
        let grab = trace.events.iter().find(|e| e.name == "grab").unwrap();
        assert_eq!(outer.args, [3, 9]);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(grab.kind, EventKind::Instant);
        assert_eq!(grab.args, [5, 7]);
        // Nesting: inner lies within outer on the shared timeline.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(outer.lane, inner.lane);
    }

    #[test]
    fn cross_thread_events_get_distinct_lanes() {
        let session = TraceSession::start();
        let _main = span(Category::Record, "main-lane");
        std::thread::spawn(|| {
            set_lane(7, "worker-7");
            let _w = span(Category::RangeExec, "worker-lane");
        })
        .join()
        .unwrap();
        drop(_main);
        let trace = session.finish();
        let main_ev = trace.events.iter().find(|e| e.name == "main-lane").unwrap();
        let worker_ev = trace
            .events
            .iter()
            .find(|e| e.name == "worker-lane")
            .unwrap();
        assert_eq!(worker_ev.lane, 7);
        assert_ne!(main_ev.lane, worker_ev.lane);
        assert!(trace
            .lane_names
            .iter()
            .any(|(l, n)| *l == 7 && n == "worker-7"));
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let session = TraceSession::start();
        for i in 0..(RING_CAP as u64 + 100) {
            instant(Category::Sim, "flood", i, 0);
        }
        let trace = session.finish();
        assert!(trace.dropped >= 100);
        assert!(trace.events.iter().filter(|e| e.name == "flood").count() <= RING_CAP);
    }

    #[test]
    fn disabled_path_overhead_is_noise() {
        // The contract the bench gates rely on: with tracing off, a span
        // is one relaxed load. Compare an instrumented spin loop against
        // a bare one; debug builds are slow, so the bound is generous —
        // the guard catches accidental clock reads or allocation (µs
        // scale), not nanosecond drift. Hold the session mutex so a
        // concurrent test cannot enable tracing mid-measurement.
        let _no_session = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!enabled());
        let iters = 100_000u64;
        let spin = |instrumented: bool| -> u64 {
            let t0 = clock::now_ns();
            let mut acc = 0u64;
            for i in 0..iters {
                if instrumented {
                    let _s = span(Category::Record, "guard");
                }
                acc = acc.wrapping_add(i).rotate_left(7);
            }
            std::hint::black_box(acc);
            clock::since_ns(t0)
        };
        // Warm up, then take the best of 3 for each variant.
        let bare = (0..3).map(|_| spin(false)).min().unwrap();
        let instrumented = (0..3).map(|_| spin(true)).min().unwrap();
        let per_call = instrumented.saturating_sub(bare) / iters;
        assert!(
            per_call < 1_000,
            "disabled span costs {per_call}ns/call (bare {bare}ns, instrumented {instrumented}ns \
             for {iters} iters) — the disabled path must stay a single atomic load"
        );
    }
}
