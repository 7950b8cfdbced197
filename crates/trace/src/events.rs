//! Per-thread flight-recorder event buffers.
//!
//! Every thread that records an enabled span owns one fixed-capacity
//! **SPSC ring** of timeline events: the owning thread is the only
//! writer, and drains happen under a snapshot of the thread registry.
//! Spans record a [`EventKind::Begin`] event at entry and an
//! [`EventKind::End`] event at drop, both carrying the span id, the
//! parent span id and the thread's registration id — enough to
//! reconstruct a per-worker timeline. The `End` events, in
//! `seq` order, are the completed spans the JSON dump's `events` array
//! lists.
//!
//! # Overflow policy
//!
//! The ring keeps the **most recent** [`EVENTS_PER_THREAD`] events per
//! thread: a writer never blocks and never drops fresh data — it
//! overwrites the oldest slot, like an aircraft flight recorder. Each
//! overwritten event counts toward the thread's `dropped` tally, surfaced
//! as the `trace.events.dropped` counter in [`crate::report`] and the
//! JSON dump.
//!
//! # Concurrency
//!
//! Slots are seqlock-protected without standalone fences (Boehm's
//! fence-free seqlock): the single writer marks a slot odd, stores the
//! payload with `Release` stores, then publishes the slot with an even
//! generation tag derived from the ring position (`Release` too). A
//! concurrent drain loads the tag (`Acquire`), the payload (`Acquire`
//! loads), then the tag again, and discards the slot on any mismatch. A
//! drain that read any payload word of a newer write synchronizes with
//! that write, so its re-check sees the newer odd tag: a reader never
//! keeps a torn event. All payload fields are themselves atomics, routed
//! through [`crate::sync`] so `ringo-check` explores the protocol; the
//! only `unsafe` is reassembling the `&'static str` span name from its
//! (pointer, length) pair after validation proves the pair consistent.

use crate::sync::{VAtomicPtr, VAtomicU64, VAtomicUsize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per thread; older events are overwritten (and counted
/// as dropped).
pub const EVENTS_PER_THREAD: usize = 4096;

/// How many trailing events per thread a panic dump prints.
const PANIC_DUMP_EVENTS: usize = 16;

/// What a timeline event marks: span entry or span exit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span entry; `t_ns` is the entry timestamp.
    Begin,
    /// Span exit; `t_ns` is the exit timestamp and `start_ns` the entry.
    End,
}

/// One event, as pushed into and drained from a thread buffer.
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// Entry or exit.
    pub kind: EventKind,
    /// Span name (e.g. `"plan.morsel.select"`).
    pub name: &'static str,
    /// Process-unique span id (nonzero).
    pub span_id: u64,
    /// Span id of the enclosing span on the same thread; 0 for roots.
    pub parent_id: u64,
    /// Nesting depth at entry: 0 for top-level spans.
    pub depth: u32,
    /// Event timestamp in nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// For [`EventKind::End`]: the matching entry timestamp.
    pub start_ns: u64,
    /// For [`EventKind::End`]: process-wide completion order.
    pub seq: u64,
    /// Input cardinality (end events; 0 unless annotated).
    pub rows_in: u64,
    /// Output cardinality (end events; 0 unless annotated).
    pub rows_out: u64,
    /// Net allocator delta over the span (end events).
    pub mem_delta: i64,
    /// Peak-heap raise over the span (end events).
    pub mem_peak_delta: u64,
}

/// One thread's drained timeline, oldest event first.
#[derive(Clone, Debug)]
pub struct ThreadTimeline {
    /// Small registration id (1-based, in registration order); the `tid`
    /// of the JSON dump's events and threads.
    pub tid: u32,
    /// OS thread name at registration (`main`, `ringo-worker-3`, ...).
    pub thread_name: String,
    /// Events lost to ring overwrite (plus any slots skipped because the
    /// writer was mid-store during the drain).
    pub dropped: u64,
    /// Retained events in write order.
    pub events: Vec<TimelineEvent>,
}

/// One seqlock-protected slot. `guard` is `2*pos + 2` when position `pos`
/// is published here, `2*pos + 1` while the writer is mid-store, and 0
/// for a never-written slot. All payload fields are plain atomics so a
/// racing drain reads stale-or-new words, never torn ones; the guard
/// protocol rejects mixed reads.
struct Slot {
    guard: VAtomicU64,
    /// `kind` in bit 0, `depth` in the bits above.
    meta: VAtomicU64,
    name_ptr: VAtomicPtr<u8>,
    name_len: VAtomicUsize,
    span_id: VAtomicU64,
    parent_id: VAtomicU64,
    t_ns: VAtomicU64,
    start_ns: VAtomicU64,
    seq: VAtomicU64,
    rows_in: VAtomicU64,
    rows_out: VAtomicU64,
    mem_delta: VAtomicU64,
    mem_peak_delta: VAtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            guard: VAtomicU64::new(0),
            meta: VAtomicU64::new(0),
            name_ptr: VAtomicPtr::new(std::ptr::null_mut()),
            name_len: VAtomicUsize::new(0),
            span_id: VAtomicU64::new(0),
            parent_id: VAtomicU64::new(0),
            t_ns: VAtomicU64::new(0),
            start_ns: VAtomicU64::new(0),
            seq: VAtomicU64::new(0),
            rows_in: VAtomicU64::new(0),
            rows_out: VAtomicU64::new(0),
            mem_delta: VAtomicU64::new(0),
            mem_peak_delta: VAtomicU64::new(0),
        }
    }
}

/// One thread's event ring. Single-writer: only the owning thread calls
/// [`ThreadBuffer::push`]; everyone else drains via [`ThreadBuffer::drain`].
pub(crate) struct ThreadBuffer {
    tid: u32,
    thread_name: String,
    /// Next position to write. Only the owner stores (Release, after the
    /// slot is published); drains load Acquire.
    head: VAtomicU64,
    /// Reset watermark: positions below it are invisible to drains.
    floor: VAtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadBuffer {
    fn with_capacity(tid: u32, thread_name: String, capacity: usize) -> Self {
        ThreadBuffer {
            tid,
            thread_name,
            head: VAtomicU64::new(0),
            floor: VAtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
        }
    }

    /// Appends one event, overwriting the oldest on overflow. Must only
    /// be called by the owning thread (the SPSC writer).
    pub(crate) fn push(&self, ev: TimelineEvent) {
        // ORDERING: Relaxed — this thread is the only writer of `head`,
        // so it reads its own last store; publication happens below.
        let pos = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(pos % self.slots.len() as u64) as usize];
        // Seqlock write protocol: mark the slot odd, store the payload,
        // publish even. Each payload store releases, so a drain whose
        // Acquire load reads any word of this write also sees the odd
        // tag stored before it, and rejects the slot on its re-check.
        // ORDERING: Relaxed on the odd tag — the payload stores after it
        // are Release, which carry it to any drain that sees them.
        slot.guard.store(2 * pos + 1, Ordering::Relaxed);
        slot.meta.store(
            u64::from(ev.depth) << 1 | u64::from(ev.kind == EventKind::End),
            Ordering::Release,
        );
        slot.name_ptr
            .store(ev.name.as_ptr().cast_mut(), Ordering::Release);
        slot.name_len.store(ev.name.len(), Ordering::Release);
        slot.span_id.store(ev.span_id, Ordering::Release);
        slot.parent_id.store(ev.parent_id, Ordering::Release);
        slot.t_ns.store(ev.t_ns, Ordering::Release);
        slot.start_ns.store(ev.start_ns, Ordering::Release);
        slot.seq.store(ev.seq, Ordering::Release);
        slot.rows_in.store(ev.rows_in, Ordering::Release);
        slot.rows_out.store(ev.rows_out, Ordering::Release);
        slot.mem_delta.store(ev.mem_delta as u64, Ordering::Release);
        slot.mem_peak_delta
            .store(ev.mem_peak_delta, Ordering::Release);
        slot.guard.store(2 * pos + 2, Ordering::Release);
        self.head.store(pos + 1, Ordering::Release);
    }

    /// Validated copy of position `pos`, or `None` if the slot was
    /// overwritten or mid-write during the copy.
    fn read_slot(&self, pos: u64) -> Option<TimelineEvent> {
        let slot = &self.slots[(pos % self.slots.len() as u64) as usize];
        let want = 2 * pos + 2;
        let g1 = slot.guard.load(Ordering::Acquire);
        if g1 != want {
            return None;
        }
        // Acquire payload loads: the guard load above synchronizes with
        // `pos`'s publication (no older payload is visible), and a load
        // that reads a newer write's word synchronizes with that write,
        // whose odd tag the re-check below then cannot miss.
        let meta = slot.meta.load(Ordering::Acquire);
        let name_ptr = slot.name_ptr.load(Ordering::Acquire);
        let name_len = slot.name_len.load(Ordering::Acquire);
        let span_id = slot.span_id.load(Ordering::Acquire);
        let parent_id = slot.parent_id.load(Ordering::Acquire);
        let t_ns = slot.t_ns.load(Ordering::Acquire);
        let start_ns = slot.start_ns.load(Ordering::Acquire);
        let seq = slot.seq.load(Ordering::Acquire);
        let rows_in = slot.rows_in.load(Ordering::Acquire);
        let rows_out = slot.rows_out.load(Ordering::Acquire);
        let mem_delta = slot.mem_delta.load(Ordering::Acquire) as i64;
        let mem_peak_delta = slot.mem_peak_delta.load(Ordering::Acquire);
        // ORDERING: Relaxed re-check — coherence orders it after every
        // write the payload loads synchronized with; equality with the
        // pre-check proves no writer touched the slot in between.
        if slot.guard.load(Ordering::Relaxed) != g1 {
            return None;
        }
        // SAFETY: the name pointer/length pair was stored from one
        // `&'static str` between the two guard transitions of position
        // `pos`, and the seqlock validation above proves this copy did
        // not interleave with any writer — the pair is consistent and
        // points at 'static UTF-8 bytes.
        let name: &'static str = unsafe {
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(name_ptr, name_len))
        };
        Some(TimelineEvent {
            kind: if meta & 1 == 1 {
                EventKind::End
            } else {
                EventKind::Begin
            },
            name,
            span_id,
            parent_id,
            depth: (meta >> 1) as u32,
            t_ns,
            start_ns,
            seq,
            rows_in,
            rows_out,
            mem_delta,
            mem_peak_delta,
        })
    }

    /// Drains the visible window: retained events in write order plus the
    /// count of events lost to overwrite (or skipped mid-write).
    pub(crate) fn drain(&self) -> ThreadTimeline {
        let head = self.head.load(Ordering::Acquire);
        let floor = self.floor.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let window = head.saturating_sub(floor);
        let lo = floor.max(head.saturating_sub(cap));
        let mut dropped = window.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - lo) as usize);
        for pos in lo..head {
            match self.read_slot(pos) {
                Some(ev) => events.push(ev),
                None => dropped += 1,
            }
        }
        ThreadTimeline {
            tid: self.tid,
            thread_name: self.thread_name.clone(),
            dropped,
            events,
        }
    }

    /// Events recorded in the current window (including overwritten ones).
    fn recorded(&self) -> u64 {
        self.head
            .load(Ordering::Acquire)
            .saturating_sub(self.floor.load(Ordering::Acquire))
    }

    /// Opens a fresh window: everything recorded so far becomes invisible.
    fn reset_window(&self) {
        self.floor
            .store(self.head.load(Ordering::Acquire), Ordering::Release);
    }
}

/// Registry of every thread buffer ever created (pruned of dead threads
/// on [`reset`]).
struct ThreadRegistry {
    threads: Mutex<Vec<Arc<ThreadBuffer>>>,
}

fn registry() -> &'static ThreadRegistry {
    static REGISTRY: OnceLock<ThreadRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| ThreadRegistry {
        threads: Mutex::new(Vec::new()),
    })
}

fn registry_threads() -> std::sync::MutexGuard<'static, Vec<Arc<ThreadBuffer>>> {
    registry().threads.lock().unwrap_or_else(|e| e.into_inner())
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

/// Per-thread recording context: the thread's buffer (created and
/// registered on first use) plus the stack of open span ids.
struct ThreadCtx {
    buf: Option<Arc<ThreadBuffer>>,
    stack: Vec<u64>,
}

impl ThreadCtx {
    fn buffer(&mut self) -> &Arc<ThreadBuffer> {
        if self.buf.is_none() {
            // ORDERING: Relaxed — the counter only hands out unique ids.
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(ThreadBuffer::with_capacity(tid, name, EVENTS_PER_THREAD));
            registry_threads().push(Arc::clone(&buf));
            self.buf = Some(buf);
        }
        self.buf.as_ref().unwrap_or_else(|| unreachable!())
    }
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx { buf: None, stack: Vec::new() })
    };
}

/// What [`begin_span`] hands the span to carry until its drop.
#[derive(Clone, Copy)]
pub(crate) struct SpanToken {
    pub span_id: u64,
    pub parent_id: u64,
    pub depth: u32,
    pub start_ns: u64,
}

/// Records a [`EventKind::Begin`] event on the calling thread and pushes
/// the span onto the thread's open-span stack. Only called for enabled
/// spans.
pub(crate) fn begin_span(name: &'static str) -> SpanToken {
    let t_ns = epoch_ns();
    // ORDERING: Relaxed — the counter only hands out unique span ids.
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let parent_id = c.stack.last().copied().unwrap_or(0);
        let depth = c.stack.len() as u32;
        c.stack.push(span_id);
        c.buffer().push(TimelineEvent {
            kind: EventKind::Begin,
            name,
            span_id,
            parent_id,
            depth,
            t_ns,
            start_ns: t_ns,
            seq: 0,
            rows_in: 0,
            rows_out: 0,
            mem_delta: 0,
            mem_peak_delta: 0,
        });
        SpanToken {
            span_id,
            parent_id,
            depth,
            start_ns: t_ns,
        }
    })
}

/// Records the matching [`EventKind::End`] event, pops the open-span
/// stack, and returns the span's wall time in nanoseconds.
pub(crate) fn end_span(
    name: &'static str,
    token: SpanToken,
    rows_in: u64,
    rows_out: u64,
    mem_delta: i64,
    mem_peak_delta: u64,
) -> u64 {
    let t_ns = epoch_ns();
    let wall_ns = t_ns.saturating_sub(token.start_ns);
    // ORDERING: Relaxed — completion order only needs unique, per-thread
    // monotonic values; cross-thread order is reconstructed from
    // timestamps, not from this counter.
    let seq = END_SEQ.fetch_add(1, Ordering::Relaxed);
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        // RAII spans unwind LIFO; tolerate out-of-order drops anyway.
        if c.stack.last() == Some(&token.span_id) {
            c.stack.pop();
        } else if let Some(i) = c.stack.iter().rposition(|&s| s == token.span_id) {
            c.stack.remove(i);
        }
        c.buffer().push(TimelineEvent {
            kind: EventKind::End,
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
    });
    wall_ns
}

/// Drains every registered thread buffer under one registry snapshot.
/// Timelines are ordered by registration id; events within a timeline
/// are in write order.
pub fn timelines_snapshot() -> Vec<ThreadTimeline> {
    let threads = registry_threads();
    let mut out: Vec<ThreadTimeline> = threads.iter().map(|b| b.drain()).collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// The `End` events of `timelines` with their thread's registration id,
/// in completion (`seq`) order — the completed spans the JSON dump's
/// `events` array lists.
pub(crate) fn completed(timelines: &[ThreadTimeline]) -> Vec<(u32, &TimelineEvent)> {
    let mut out: Vec<(u32, &TimelineEvent)> = timelines
        .iter()
        .flat_map(|tl| tl.events.iter().map(move |e| (tl.tid, e)))
        .filter(|(_, e)| e.kind == EventKind::End)
        .collect();
    out.sort_by_key(|(_, e)| e.seq);
    out
}

/// Total events recorded in the current window across all threads
/// (including those since overwritten).
pub fn total_recorded() -> u64 {
    registry_threads().iter().map(|b| b.recorded()).sum()
}

/// Total events lost to ring overwrite in the current window.
pub fn total_dropped() -> u64 {
    registry_threads()
        .iter()
        .map(|b| b.recorded().saturating_sub(b.slots.len() as u64))
        .sum()
}

/// Opens a fresh window on every buffer and prunes buffers whose owning
/// thread has exited (their TLS handle is gone, so only the registry's
/// `Arc` remains).
pub(crate) fn reset() {
    let mut threads = registry_threads();
    threads.retain(|b| Arc::strong_count(b) > 1);
    for b in threads.iter() {
        b.reset_window();
    }
}

/// Renders the flight recorder (recent per-thread events) as
/// human-readable text — what the panic hook dumps to stderr.
pub fn flight_dump() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("=== ringo flight recorder ===\n");
    let timelines = timelines_snapshot();
    if timelines.is_empty() {
        out.push_str("  (no events recorded; was tracing enabled?)\n");
    }
    for tl in &timelines {
        let _ = writeln!(
            out,
            "thread {} \"{}\" ({} events retained, {} dropped):",
            tl.tid,
            tl.thread_name,
            tl.events.len(),
            tl.dropped
        );
        let tail_from = tl.events.len().saturating_sub(PANIC_DUMP_EVENTS);
        for ev in &tl.events[tail_from..] {
            let mark = match ev.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
            };
            let _ = write!(
                out,
                "  [{:>12}ns] {mark} {:indent$}{}",
                ev.t_ns,
                "",
                ev.name,
                indent = (ev.depth as usize) * 2
            );
            if ev.kind == EventKind::End {
                let _ = write!(
                    out,
                    " wall={} rows={}->{}",
                    crate::fmt_ns(ev.t_ns.saturating_sub(ev.start_ns)),
                    ev.rows_in,
                    ev.rows_out
                );
            }
            out.push('\n');
        }
    }
    out.push_str("=== end flight recorder ===\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &'static str, n: u64) -> TimelineEvent {
        TimelineEvent {
            kind: EventKind::End,
            name,
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
    fn buffer_retains_newest_and_counts_dropped() {
        let buf = ThreadBuffer::with_capacity(7, "test".into(), 64);
        for i in 0..64 + 10 {
            buf.push(raw("test.sat", i));
        }
        let tl = buf.drain();
        assert_eq!(tl.tid, 7);
        assert_eq!(tl.events.len(), 64, "bounded at capacity");
        assert_eq!(tl.dropped, 10, "overwritten events are counted");
        // Oldest-first write order, newest retained.
        assert_eq!(tl.events.first().map(|e| e.span_id), Some(10));
        assert_eq!(tl.events.last().map(|e| e.span_id), Some(73));
        buf.reset_window();
        let tl = buf.drain();
        assert!(tl.events.is_empty());
        assert_eq!(tl.dropped, 0, "fresh window");
    }

    #[test]
    fn drain_skips_unwritten_slots() {
        let buf = ThreadBuffer::with_capacity(1, "test".into(), 8);
        buf.push(raw("test.one", 1));
        let tl = buf.drain();
        assert_eq!(tl.events.len(), 1);
        assert_eq!(tl.events[0].name, "test.one");
        assert_eq!(tl.dropped, 0);
    }
}

/// The ring under the deterministic scheduler (`--features model`): the
/// real [`ThreadBuffer::push`] and [`ThreadBuffer::drain`], one writer
/// lapping a two-slot ring while one reader drains it.
#[cfg(all(test, feature = "model"))]
mod model {
    use super::*;

    const CAP: u64 = 2;
    const PUSHES: u64 = 4;
    const DRAINS: usize = 8;
    const NAMES: [&str; 3] = ["model.a", "model.bb", "model.ccc"];

    /// Event `n`: every field is derived from `n` (its `seq`), so a copy
    /// mixing words of two writes differs from `event(copy.seq)`.
    fn event(n: u64) -> TimelineEvent {
        TimelineEvent {
            kind: if n.is_multiple_of(2) {
                EventKind::Begin
            } else {
                EventKind::End
            },
            name: NAMES[n as usize % NAMES.len()],
            span_id: n + 1,
            parent_id: n + 2,
            depth: n as u32 + 3,
            t_ns: n + 4,
            start_ns: n + 5,
            seq: n,
            rows_in: n + 6,
            rows_out: n + 7,
            mem_delta: -(n as i64) - 8,
            mem_peak_delta: n + 9,
        }
    }

    #[test]
    fn drained_events_are_whole_and_the_dropped_count_is_exact() {
        ringo_check::check("trace_ring_push_drain", || {
            let buf = Arc::new(ThreadBuffer::with_capacity(1, "model".into(), CAP as usize));
            let writer = {
                let buf = Arc::clone(&buf);
                ringo_check::vthread::spawn(move || (0..PUSHES).for_each(|n| buf.push(event(n))))
            };
            // Drain until the writer is seen done (bounded: the reader
            // must not spin on a schedule that never runs the writer).
            // The floor stays 0, so each drain accounts for exactly the
            // head it loaded, which lies between the loads around it.
            for _ in 0..DRAINS {
                let before = buf.head.load(Ordering::Acquire);
                let tl = buf.drain();
                let after = buf.head.load(Ordering::Acquire);
                let head = tl.events.len() as u64 + tl.dropped;
                assert!(
                    (before..=after).contains(&head),
                    "events + dropped = {head}, but head was in {before}..={after}"
                );
                for ev in &tl.events {
                    let want = event(ev.seq);
                    assert_eq!(format!("{ev:?}"), format!("{want:?}"), "torn event");
                    assert!(
                        ev.seq < head && ev.seq + CAP >= head,
                        "event outside the window"
                    );
                }
                assert!(tl.events.windows(2).all(|w| w[0].seq < w[1].seq));
                if head == PUSHES {
                    break;
                }
            }
            writer.join().expect("writer panicked");

            // After the join: the newest CAP events, the rest dropped.
            let tl = buf.drain();
            assert_eq!(tl.events.len() as u64 + tl.dropped, PUSHES);
            let seqs: Vec<u64> = tl.events.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (PUSHES - CAP..PUSHES).collect::<Vec<_>>());
        });
    }
}
