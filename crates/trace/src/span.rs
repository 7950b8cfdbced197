//! RAII spans: enter with [`crate::span!`], annotate cardinalities, and
//! the drop records latency, memory deltas, and one completed-span event
//! in the calling thread's flight recorder.

use crate::events::{self, SpanToken};
use crate::mem;

/// An RAII measurement of one named operation.
///
/// Created with [`crate::span!`]. When tracing is disabled at entry the
/// span is inert: construction is one relaxed atomic load, annotation
/// methods are no-ops, and drop does nothing — the overhead contract
/// (`bench_e2e`'s `trace.overhead_pct` measures the enabled side).
/// When enabled, entry pushes the span (its name, id and start time)
/// onto the thread's open-span stack, and the drop records the wall time
/// into the span's named [`crate::Histogram`] plus one event in the
/// thread's ring carrying rows in/out and allocator deltas.
pub struct Span {
    inner: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    token: SpanToken,
    mem_start: usize,
    peak_start: usize,
    rows_in: u64,
    rows_out: u64,
}

impl Span {
    /// Starts a span named `name`; inert unless tracing is enabled.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { inner: None };
        }
        Span {
            inner: Some(ActiveSpan {
                name,
                token: events::begin_span(name),
                mem_start: mem::current_bytes(),
                peak_start: mem::peak_bytes(),
                rows_in: 0,
                rows_out: 0,
            }),
        }
    }

    /// Whether this span is actually recording.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Annotates the input cardinality (rows or edges).
    #[inline]
    pub fn rows_in(&mut self, n: usize) {
        if let Some(s) = &mut self.inner {
            s.rows_in = n as u64;
        }
    }

    /// Annotates the output cardinality (rows or edges).
    #[inline]
    pub fn rows_out(&mut self, n: usize) {
        if let Some(s) = &mut self.inner {
            s.rows_out = n as u64;
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            finish(s);
        }
    }
}

/// Out-of-line slow path: only runs for enabled spans.
#[cold]
fn finish(s: ActiveSpan) {
    events::end_span(
        s.name,
        s.token,
        s.rows_in,
        s.rows_out,
        mem::current_bytes() as i64 - s.mem_start as i64,
        mem::peak_bytes().saturating_sub(s.peak_start) as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{events::completed, timelines_snapshot};

    #[test]
    fn nested_spans_record_depth_and_unwind() {
        let _l = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let mut outer = crate::span!("test.nest_outer");
            outer.rows_in(10);
            {
                let _mid = crate::span!("test.nest_mid");
                {
                    let _inner = crate::span!("test.nest_inner");
                }
            }
            // A sibling after the nested pair re-uses depth 1.
            let _sibling = crate::span!("test.nest_sibling");
            outer.rows_out(5);
        }
        let timelines = timelines_snapshot();
        let events = completed(&timelines);
        let ev = |n: &str| events.iter().find(|(_, e)| e.name == n).unwrap().1;
        let depth_of = |n: &str| ev(n).depth;
        assert_eq!(depth_of("test.nest_outer"), 0);
        assert_eq!(depth_of("test.nest_mid"), 1);
        assert_eq!(depth_of("test.nest_inner"), 2);
        assert_eq!(depth_of("test.nest_sibling"), 1);
        // Inner spans complete (and are recorded) before outer ones.
        let seq_of = |n: &str| ev(n).seq;
        assert!(seq_of("test.nest_inner") < seq_of("test.nest_mid"));
        assert!(seq_of("test.nest_mid") < seq_of("test.nest_outer"));
        // Parent attribution: inner spans point at their enclosing span.
        assert_eq!(ev("test.nest_outer").parent_id, 0);
        assert_eq!(ev("test.nest_mid").parent_id, ev("test.nest_outer").span_id);
        assert_eq!(ev("test.nest_inner").parent_id, ev("test.nest_mid").span_id);
        assert_eq!(
            ev("test.nest_sibling").parent_id,
            ev("test.nest_outer").span_id
        );
        // All on this thread.
        assert!(events.windows(2).all(|w| w[0].0 == w[1].0));
        // Cardinality annotations land on the right event.
        let outer = ev("test.nest_outer");
        assert_eq!((outer.rows_in, outer.rows_out), (10, 5));
        // Depth fully unwound: a fresh span is top-level again.
        {
            let _after = crate::span!("test.nest_after");
        }
        let timelines = timelines_snapshot();
        let after = completed(&timelines)
            .into_iter()
            .find(|(_, e)| e.name == "test.nest_after")
            .unwrap();
        assert_eq!(after.1.depth, 0);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn span_enabled_at_entry_decides_recording() {
        let _l = crate::test_lock();
        crate::set_enabled(false);
        crate::reset();
        let sp = Span::enter("test.entry_decides");
        crate::set_enabled(true);
        drop(sp); // was created disabled: must not record
        assert!(completed(&timelines_snapshot()).is_empty());
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn one_event_per_span_pairs_entry_and_exit() {
        let _l = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _sp = crate::span!("test.pairing");
        }
        let timelines = crate::timelines_snapshot();
        let mine: Vec<_> = timelines
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.name == "test.pairing")
            .collect();
        assert_eq!(mine.len(), 1, "one event a span");
        assert!(mine[0].t_ns >= mine[0].start_ns);
        assert_eq!(crate::events::total_recorded(), 1);
        crate::set_enabled(false);
        crate::reset();
    }
}
