//! `ringo-trace` — the observability layer of the Ringo reproduction.
//!
//! The paper's headline claim is *interactivity*: every table/graph verb
//! returns in seconds with its runtime visible to the analyst (§4.1 shows
//! each demo step printing its wall time). This crate gives the engine the
//! machinery to answer "where did the last query spend its time and
//! memory?" without adding any dependency:
//!
//! * a **global metrics registry** of named atomic [`Counter`]s and
//!   fixed log2-bucket latency [`Histogram`]s ([`registry`]),
//! * an **RAII span API** ([`span!`] / [`Span`]) recording wall time,
//!   rows/edges in and out, and allocator deltas per operation,
//! * a **flight recorder** ([`events`]): per registered thread, its open
//!   spans and a bounded ring of its completed ones (one event a span,
//!   with thread and parent-span attribution) behind one mutex, so
//!   per-worker timelines are reconstructable after the fact,
//! * the **allocator instrumentation** ([`mem`], moved here from
//!   `ringo-core` so every layer of the engine can read it),
//! * three **sinks**: a human-readable [`report`] table, a JSON dump
//!   ([`to_json`] / [`dump_json`], written at process exit when
//!   `RINGO_TRACE_JSON=<path>` is set, via [`init_from_env`]), and a
//!   panic-hook flight dump ([`install_panic_hook`] / [`flight_dump`])
//!   for post-mortems.
//!
//! # Overhead contract
//!
//! Tracing is **off by default**. A disabled span costs one relaxed atomic
//! load plus a `None` write — a few nanoseconds. What recording costs a
//! whole session is `bench_e2e`'s `trace.overhead_pct`. Instrumented hot
//! paths therefore keep their spans unconditional; there is no feature
//! flag to strip them.
//!
//! # Example
//!
//! ```
//! ringo_trace::set_enabled(true);
//! {
//!     let mut sp = ringo_trace::span!("table.join");
//!     sp.rows_in(100);
//!     // ... do the join ...
//!     sp.rows_out(42);
//! } // drop records latency + memory into the registry and event ring
//! let text = ringo_trace::report();
//! assert!(text.contains("table.join"));
//! ringo_trace::set_enabled(false);
//! ringo_trace::reset();
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod mem;
pub mod registry;
mod span;

pub use events::{
    flight_dump, timelines_snapshot, ThreadTimeline, TimelineEvent, EVENTS_PER_THREAD,
};
pub use registry::{
    counter, counters_snapshot, histogram, histograms_snapshot, Counter, CounterSnapshot,
    Histogram, HistogramSnapshot, HIST_BUCKETS,
};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};

/// Global enable flag. Relaxed loads only: the hot path never synchronizes.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is currently enabled. This is the single relaxed atomic
/// load a disabled [`span!`] pays.
#[inline(always)]
pub fn enabled() -> bool {
    // ORDERING: Relaxed — a stale answer only delays when spans start or
    // stop recording; nothing is published through this flag.
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off process-wide. Spans created while disabled
/// record nothing, even if tracing is enabled before they drop.
pub fn set_enabled(on: bool) {
    // ORDERING: Relaxed — see `enabled`.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Creates an RAII [`Span`] for a named operation.
///
/// ```
/// fn join_inner() {
///     let mut sp = ringo_trace::span!("table.join");
///     sp.rows_in(10);
///     // ... work ...
///     sp.rows_out(3);
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
}

/// Zeroes every counter, histogram and per-thread event ring, starting
/// a fresh measurement window. Registered names survive (they keep their
/// handles); the cumulative `PoolStats` of the worker pool are unaffected
/// because the pool feeds the registry with per-chunk *deltas*, so a
/// window opened by `reset()` sees only work dispatched after it.
pub fn reset() {
    registry::reset();
    events::reset();
}

/// Renders the registry as a human-readable table: one row per histogram
/// (calls, total, mean, p50, p99, max) followed by the named counters and
/// the flight recorder's tallies (`trace.events.recorded` / `.dropped`).
pub fn report() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let hists = histograms_snapshot();
    let counters = counters_snapshot();
    let recorded = events::total_recorded();
    let dropped = events::total_dropped();
    out.push_str("ringo-trace report\n");
    if hists.is_empty() && counters.is_empty() && recorded == 0 {
        out.push_str("  (no metrics recorded; is tracing enabled?)\n");
        return out;
    }
    if !hists.is_empty() {
        writeln!(
            out,
            "  {:<28} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "span", "calls", "total", "mean", "p50", "p99", "max"
        )
        .unwrap();
        for h in &hists {
            if h.count == 0 {
                continue;
            }
            writeln!(
                out,
                "  {:<28} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                h.name,
                h.count,
                fmt_ns(h.sum_ns),
                fmt_ns(h.sum_ns / h.count),
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.99)),
                fmt_ns(h.max_ns),
            )
            .unwrap();
        }
    }
    writeln!(out, "  {:<28} {:>8}", "counter", "value").unwrap();
    for c in &counters {
        writeln!(out, "  {:<28} {:>8}", c.name, c.value).unwrap();
    }
    writeln!(out, "  {:<28} {:>8}", "trace.events.recorded", recorded).unwrap();
    writeln!(out, "  {:<28} {:>8}", "trace.events.dropped", dropped).unwrap();
    out
}

/// Formats a nanosecond quantity with an adaptive unit, for [`report`].
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Serializes the full trace state (counters, histograms, events, per
/// thread tallies, memory watermarks) as a JSON object. See [`json`] for
/// the writer and [`json::parse`] for the matching reader.
pub fn to_json() -> String {
    json::trace_to_json()
}

/// Writes [`to_json`] to `path`.
pub fn dump_json(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_json())
}

/// Installs a panic hook that dumps the flight recorder (every thread's
/// open spans and last completed ones) to stderr before the default
/// hook runs. Idempotent; chains to the previously installed hook so
/// backtraces still print. [`init_from_env`] installs it automatically
/// whenever tracing is enabled through the environment.
pub fn install_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            eprintln!("{}", flight_dump());
            prev(info);
        }));
    });
}

/// Enables tracing when `RINGO_TRACE_JSON=<path>` is set: the returned
/// guard writes the JSON trace there when dropped at the end of `main`,
/// and a crash leaves a flight-recorder dump on stderr (the
/// [panic hook](install_panic_hook)). Unset, it does nothing.
///
/// Call it first thing in `main` and keep the guard alive:
///
/// ```no_run
/// let _trace = ringo_trace::init_from_env();
/// // ... program; guard drop at the end of main writes the dump ...
/// ```
#[must_use = "hold the guard until the end of main so the trace dump is written"]
pub fn init_from_env() -> TraceGuard {
    let dump_to = std::env::var_os("RINGO_TRACE_JSON").map(std::path::PathBuf::from);
    if dump_to.is_some() {
        set_enabled(true);
        install_panic_hook();
    }
    TraceGuard { dump_to }
}

/// Guard returned by [`init_from_env`]; writes the JSON dump when
/// dropped.
pub struct TraceGuard {
    dump_to: Option<std::path::PathBuf>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(path) = self.dump_to.take() {
            if let Err(e) = dump_json(&path) {
                eprintln!("ringo-trace: failed to write {}: {e}", path.display());
            } else {
                eprintln!("ringo-trace: wrote {}", path.display());
            }
        }
    }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // Trace state is process-global; unit tests that mutate it serialize
    // through this lock (poisoning from an asserting test is harmless).
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = test_lock();
        set_enabled(false);
        reset();
        {
            let mut sp = span!("test.disabled");
            sp.rows_in(5);
            sp.rows_out(5);
            assert!(!sp.is_active());
        }
        assert!(histograms_snapshot().iter().all(|h| h.count == 0));
        assert!(events::completed(&timelines_snapshot()).is_empty());
    }

    #[test]
    fn report_lists_spans_and_counters() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        {
            let mut sp = span!("test.report_op");
            sp.rows_in(2);
            sp.rows_out(1);
        }
        counter("test.report_counter").add(3);
        let r = report();
        assert!(r.contains("test.report_op"), "{r}");
        assert!(r.contains("test.report_counter"), "{r}");
        assert!(r.contains("trace.events.recorded"), "{r}");
        assert!(r.contains("trace.events.dropped"), "{r}");
        set_enabled(false);
        reset();
    }

    #[test]
    fn reset_opens_a_fresh_window() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        {
            let _sp = span!("test.window");
        }
        counter("test.window_counter").add(7);
        assert!(histograms_snapshot().iter().any(|h| h.count > 0));
        reset();
        assert!(histograms_snapshot().iter().all(|h| h.count == 0));
        assert!(counters_snapshot().iter().all(|c| c.value == 0));
        assert!(events::completed(&timelines_snapshot()).is_empty());
        assert!(events::total_recorded() == 0);
        set_enabled(false);
    }

    #[test]
    fn panic_hook_is_idempotent() {
        // No test_lock needed: installs a process-global hook once.
        install_panic_hook();
        install_panic_hook();
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_700), "1.70us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
