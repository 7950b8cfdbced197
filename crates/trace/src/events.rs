//! Per-thread flight recorder: each thread's open spans and a bounded
//! ring of its completed ones.
//!
//! Every thread that records an enabled span owns one recorder, created
//! and registered on first use. [`Span`](crate::Span) entry pushes the
//! span onto the recorder's open-span stack and records nothing else; the
//! drop pops it and pushes one [`TimelineEvent`] for the completed span,
//! carrying its id, its parent's id, its depth, the thread's registration
//! id, both timestamps, rows and allocator deltas — enough to reconstruct
//! a per-worker timeline. In `seq` order these events are the JSON dump's
//! `events` array.
//!
//! # Overflow policy
//!
//! The ring keeps the **most recent** [`EVENTS_PER_THREAD`] completed
//! spans per thread: a full ring drops its oldest event, like an
//! aircraft flight recorder, and counts it in the thread's `dropped`
//! tally, surfaced as the `trace.events.dropped` counter in
//! [`crate::report`] and the JSON dump.
//!
//! # Concurrency
//!
//! A recorder sits behind its own mutex. The owning thread locks it twice
//! a span (entry and drop); a reader ([`timelines_snapshot`], [`crate::reset`],
//! the tallies) locks the thread list, then one recorder at a time. No
//! code path holds two recorders' locks, so a writer waits at most for
//! one drain of its own ring. [`flight_dump`], which the panic hook
//! calls, only ever `try_lock`s and reports a busy recorder rather than
//! wait on it.

use crate::Histogram;
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::Instant;

/// Completed spans retained per thread; older ones are dropped (and
/// counted).
pub const EVENTS_PER_THREAD: usize = 4096;

/// How many trailing completed spans per thread a panic dump prints.
const PANIC_DUMP_EVENTS: usize = 16;

/// One completed span, as recorded at its end.
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// Span name (e.g. `"plan.morsel.select"`).
    pub name: &'static str,
    /// Process-unique span id (nonzero).
    pub span_id: u64,
    /// Span id of the enclosing span on the same thread; 0 for roots.
    pub parent_id: u64,
    /// Nesting depth at entry: 0 for top-level spans.
    pub depth: u32,
    /// Exit timestamp in nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Entry timestamp in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Process-wide completion order.
    pub seq: u64,
    /// Input cardinality (0 unless annotated).
    pub rows_in: u64,
    /// Output cardinality (0 unless annotated).
    pub rows_out: u64,
    /// Net allocator delta over the span.
    pub mem_delta: i64,
    /// Peak-heap raise over the span.
    pub mem_peak_delta: u64,
}

/// One thread's drained timeline, oldest completed span first.
#[derive(Clone, Debug)]
pub struct ThreadTimeline {
    /// Small registration id (1-based, in registration order); the `tid`
    /// of the JSON dump's events and threads.
    pub tid: u32,
    /// OS thread name at registration (`main`, `ringo-worker-3`, ...).
    pub thread_name: String,
    /// Completed spans the ring dropped to make room.
    pub dropped: u64,
    /// Retained completed spans in completion order.
    pub events: Vec<TimelineEvent>,
}

/// A span that has begun and not yet ended.
struct OpenSpan {
    name: &'static str,
    span_id: u64,
    start_ns: u64,
}

/// What one thread has recorded.
struct Recorder {
    /// Open spans, innermost last.
    open: Vec<OpenSpan>,
    /// The most recent completed spans, oldest first.
    ring: VecDeque<TimelineEvent>,
    /// Completed spans recorded since the last [`reset`], dropped ones
    /// included.
    recorded: u64,
    /// The histogram of each span name this thread has ended, so a span's
    /// drop takes the registry's shared lock only on a name's first end.
    hists: Vec<(&'static str, &'static Histogram)>,
}

impl Recorder {
    /// The histogram registered under `name`, from this thread's cache.
    fn histogram(&mut self, name: &'static str) -> &'static Histogram {
        match self.hists.iter().find(|(n, _)| std::ptr::eq(*n, name)) {
            Some(&(_, h)) => h,
            None => {
                let h = crate::histogram(name);
                self.hists.push((name, h));
                h
            }
        }
    }

    /// Each step keeps `ring.len() <= recorded`, so a guard recovered
    /// from a poisoned lock still reads a whole recorder.
    fn push(&mut self, ev: TimelineEvent) {
        self.recorded += 1;
        if self.ring.len() == EVENTS_PER_THREAD {
            self.ring.pop_front();
        }
        self.ring.push_back(ev);
    }

    fn dropped(&self) -> u64 {
        self.recorded - self.ring.len() as u64
    }
}

/// One registered thread: its id and name, and its recorder.
struct ThreadBuffer {
    tid: u32,
    thread_name: String,
    rec: Mutex<Recorder>,
}

impl ThreadBuffer {
    fn lock(&self) -> MutexGuard<'_, Recorder> {
        self.rec.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn timeline(&self, r: &Recorder) -> ThreadTimeline {
        ThreadTimeline {
            tid: self.tid,
            thread_name: self.thread_name.clone(),
            dropped: r.dropped(),
            events: r.ring.iter().cloned().collect(),
        }
    }
}

/// Every thread buffer ever created (pruned of dead threads on
/// [`reset`]).
static THREADS: Mutex<Vec<Arc<ThreadBuffer>>> = Mutex::new(Vec::new());

fn threads() -> MutexGuard<'static, Vec<Arc<ThreadBuffer>>> {
    THREADS.lock().unwrap_or_else(|e| e.into_inner())
}

/// `m`'s guard, or `None` while another thread holds it: the panic hook
/// must not wait on a lock. A poisoned lock still holds whole events.
fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static END_SEQ: AtomicU64 = AtomicU64::new(0);

/// Process-wide monotonic clock all timeline events share, anchored at
/// first use.
fn epoch_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static BUF: OnceCell<Arc<ThreadBuffer>> = const { OnceCell::new() };
}

/// Runs `f` on the calling thread's recorder, registering it first if
/// this is the thread's first span.
fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    BUF.with(|b| f(&mut b.get_or_init(register).lock()))
}

fn register() -> Arc<ThreadBuffer> {
    // ORDERING: Relaxed — the counter only hands out unique ids.
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let thread_name = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let buf = Arc::new(ThreadBuffer {
        tid,
        thread_name,
        rec: Mutex::new(Recorder {
            open: Vec::new(),
            ring: VecDeque::with_capacity(EVENTS_PER_THREAD),
            recorded: 0,
            hists: Vec::new(),
        }),
    });
    threads().push(Arc::clone(&buf));
    buf
}

/// What [`begin_span`] hands the span to carry until its drop.
#[derive(Clone, Copy)]
pub(crate) struct SpanToken {
    pub span_id: u64,
    pub parent_id: u64,
    pub depth: u32,
    pub start_ns: u64,
}

/// Pushes the span onto the calling thread's open-span stack. Only called
/// for enabled spans.
pub(crate) fn begin_span(name: &'static str) -> SpanToken {
    let start_ns = epoch_ns();
    // ORDERING: Relaxed — the counter only hands out unique span ids.
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    with_recorder(|r| {
        let token = SpanToken {
            span_id,
            parent_id: r.open.last().map_or(0, |s| s.span_id),
            depth: r.open.len() as u32,
            start_ns,
        };
        r.open.push(OpenSpan {
            name,
            span_id,
            start_ns,
        });
        token
    })
}

/// Pops the span off the open-span stack, records it as completed, and
/// records its wall time in the histogram of its name.
pub(crate) fn end_span(
    name: &'static str,
    token: SpanToken,
    rows_in: u64,
    rows_out: u64,
    mem_delta: i64,
    mem_peak_delta: u64,
) {
    let t_ns = epoch_ns();
    // ORDERING: Relaxed — completion order only needs unique, per-thread
    // monotonic values; cross-thread order is reconstructed from
    // timestamps, not from this counter.
    let seq = END_SEQ.fetch_add(1, Ordering::Relaxed);
    with_recorder(|r| {
        // RAII spans unwind LIFO (the search ends at the top); a span
        // moved and dropped out of order is found further down.
        if let Some(i) = r.open.iter().rposition(|s| s.span_id == token.span_id) {
            r.open.remove(i);
        }
        r.push(TimelineEvent {
            name,
            span_id: token.span_id,
            parent_id: token.parent_id,
            depth: token.depth,
            t_ns,
            start_ns: token.start_ns,
            seq,
            rows_in,
            rows_out,
            mem_delta,
            mem_peak_delta,
        });
        r.histogram(name)
            .record(t_ns.saturating_sub(token.start_ns));
    });
}

/// Drains every registered thread's ring. Timelines are ordered by
/// registration id; events within a timeline in completion order.
pub fn timelines_snapshot() -> Vec<ThreadTimeline> {
    let mut out: Vec<ThreadTimeline> = threads().iter().map(|b| b.timeline(&b.lock())).collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// The events of `timelines` with their thread's registration id, in
/// completion (`seq`) order — the completed spans the JSON dump's
/// `events` array lists.
pub(crate) fn completed(timelines: &[ThreadTimeline]) -> Vec<(u32, &TimelineEvent)> {
    let mut out: Vec<(u32, &TimelineEvent)> = timelines
        .iter()
        .flat_map(|tl| tl.events.iter().map(move |e| (tl.tid, e)))
        .collect();
    out.sort_by_key(|(_, e)| e.seq);
    out
}

/// Completed spans recorded since the last reset across all threads,
/// dropped ones included.
pub fn total_recorded() -> u64 {
    threads().iter().map(|b| b.lock().recorded).sum()
}

/// Completed spans the rings dropped since the last reset.
pub fn total_dropped() -> u64 {
    threads().iter().map(|b| b.lock().dropped()).sum()
}

/// Empties every ring and prunes buffers whose owning thread has exited
/// (their TLS handle is gone, so only the list's `Arc` remains). Open
/// spans stay open: they complete into the fresh window.
pub(crate) fn reset() {
    let mut threads = threads();
    threads.retain(|b| Arc::strong_count(b) > 1);
    for b in threads.iter() {
        let mut r = b.lock();
        r.ring.clear();
        r.recorded = 0;
    }
}

/// Renders the flight recorder as human-readable text — what the panic
/// hook dumps to stderr: per thread, its open spans (the work in flight)
/// and then its last completed spans. A recorder another thread holds
/// locked is reported busy, not waited for.
pub fn flight_dump() -> String {
    use std::fmt::Write;
    let now = epoch_ns();
    let mut out = String::from("=== ringo flight recorder ===\n");
    let Some(threads) = try_lock(&THREADS) else {
        out.push_str("  (thread list busy; not read)\n=== end flight recorder ===\n");
        return out;
    };
    if threads.is_empty() {
        out.push_str("  (no spans recorded; was tracing enabled?)\n");
    }
    let mut threads: Vec<&ThreadBuffer> = threads.iter().map(|b| &**b).collect();
    threads.sort_by_key(|b| b.tid);
    for b in threads {
        let Some(r) = try_lock(&b.rec) else {
            let _ = writeln!(
                out,
                "thread {} \"{}\": busy, not read",
                b.tid, b.thread_name
            );
            continue;
        };
        let _ = writeln!(
            out,
            "thread {} \"{}\" ({} open, {} completed retained, {} dropped):",
            b.tid,
            b.thread_name,
            r.open.len(),
            r.ring.len(),
            r.dropped()
        );
        for (depth, s) in r.open.iter().enumerate() {
            let _ = writeln!(
                out,
                "  open [{:>12}ns] {:indent$}{} running={}",
                s.start_ns,
                "",
                s.name,
                crate::fmt_ns(now.saturating_sub(s.start_ns)),
                indent = depth * 2
            );
        }
        for ev in r
            .ring
            .iter()
            .skip(r.ring.len().saturating_sub(PANIC_DUMP_EVENTS))
        {
            let _ = writeln!(
                out,
                "  done [{:>12}ns] {:indent$}{} wall={} rows={}->{}",
                ev.t_ns,
                "",
                ev.name,
                crate::fmt_ns(ev.t_ns.saturating_sub(ev.start_ns)),
                ev.rows_in,
                ev.rows_out,
                indent = (ev.depth as usize) * 2
            );
        }
    }
    out.push_str("=== end flight recorder ===\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(n: u64) -> TimelineEvent {
        TimelineEvent {
            name: "test.sat",
            span_id: n,
            parent_id: 0,
            depth: 0,
            t_ns: n,
            start_ns: 0,
            seq: n,
            rows_in: 0,
            rows_out: 0,
            mem_delta: 0,
            mem_peak_delta: 0,
        }
    }

    #[test]
    fn ring_retains_newest_and_counts_dropped() {
        let mut r = Recorder {
            open: Vec::new(),
            ring: VecDeque::new(),
            recorded: 0,
            hists: Vec::new(),
        };
        let n = EVENTS_PER_THREAD as u64 + 10;
        (0..n).for_each(|i| r.push(raw(i)));
        assert_eq!(r.ring.len(), EVENTS_PER_THREAD, "bounded at capacity");
        assert_eq!(r.dropped(), 10, "dropped events are counted");
        // Oldest-first completion order, newest retained.
        assert_eq!(r.ring.front().map(|e| e.span_id), Some(10));
        assert_eq!(r.ring.back().map(|e| e.span_id), Some(n - 1));
    }

    /// Each thread looks a name's histogram up in the registry once and
    /// keeps the handle: spans of one name ended on four threads land in
    /// one histogram, every one counted.
    #[test]
    fn spans_of_one_name_on_four_threads_count_in_one_histogram() {
        let _l = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        const PER_THREAD: u64 = 2500;
        let handles: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..PER_THREAD).for_each(|_| drop(crate::span!("test.one_name")));
                        with_recorder(|r| r.histogram("test.one_name") as *const _ as usize)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let registered = crate::histogram("test.one_name") as *const _ as usize;
        assert!(handles.iter().all(|&h| h == registered), "one histogram");
        let hists = crate::histograms_snapshot();
        let named: Vec<_> = hists.iter().filter(|h| h.name == "test.one_name").collect();
        assert_eq!(named.len(), 1);
        assert_eq!(named[0].count, 4 * PER_THREAD, "every span counted");
        crate::set_enabled(false);
    }

    #[test]
    fn open_spans_lead_the_flight_dump() {
        let _l = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _done = crate::span!("test.fd_done");
        }
        let _outer = crate::span!("test.fd_outer");
        let _inner = crate::span!("test.fd_inner");
        let dump = flight_dump();
        let line = |n: &str| dump.lines().position(|l| l.contains(n)).expect(n);
        assert!(
            dump.contains("  open [") && dump.contains("  done ["),
            "{dump}"
        );
        assert!(line("test.fd_outer") < line("test.fd_inner"), "{dump}");
        assert!(line("test.fd_inner") < line("test.fd_done"), "{dump}");
        drop((_inner, _outer));
        crate::set_enabled(false);
        crate::reset();
    }
}
