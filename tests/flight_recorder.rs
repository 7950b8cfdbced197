//! Integration tests for the flight recorder: per-thread event
//! attribution under the worker pool, ring saturation accounting, and
//! the panic-hook dump.
//!
//! Trace state is process-global, so every test that mutates it
//! serializes through one lock and opens its own window with
//! `trace::reset()`.

use ringo::concurrent::Pool;
use ringo::trace::{self, events::EventKind, json::JsonValue};
use std::sync::{Barrier, Mutex, MutexGuard};

mod common;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every chunk of a `Pool::with_workers(n)` job records a span, and a
/// barrier forces all `n` chunks in flight at once — so the drained
/// timelines must show exactly `n` distinct recording threads, each with
/// balanced begin/end pairs.
#[test]
fn per_thread_attribution_across_pool_sizes() {
    let _l = lock();
    for n in [1usize, 4, 8] {
        trace::set_enabled(true);
        trace::reset();
        let pool = Pool::with_workers(n);
        let barrier = Barrier::new(n);
        pool.run(n, &|_chunk| {
            let mut sp = trace::Span::enter("test.fr.chunk");
            sp.rows_in(1);
            barrier.wait();
        });
        trace::set_enabled(false);

        let timelines = trace::timelines_snapshot();
        let mut tids = Vec::new();
        let mut begins = 0;
        let mut ends = 0;
        for tl in &timelines {
            let mine: Vec<_> = tl
                .events
                .iter()
                .filter(|e| e.name == "test.fr.chunk")
                .collect();
            if mine.is_empty() {
                continue;
            }
            tids.push(tl.tid);
            begins += mine
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Begin))
                .count();
            ends += mine
                .iter()
                .filter(|e| matches!(e.kind, EventKind::End))
                .count();
            // Each thread's slice of the job is internally balanced.
            let mut depth = 0i64;
            for e in &tl.events {
                match e.kind {
                    EventKind::Begin => depth += 1,
                    EventKind::End => depth -= 1,
                }
                assert!(depth >= 0, "end before begin on tid {}", tl.tid);
            }
            assert_eq!(depth, 0, "unbalanced timeline on tid {}", tl.tid);
        }
        assert_eq!(tids.len(), n, "threads={n}: one timeline per executor");
        assert_eq!(begins, n, "threads={n}: one begin per chunk");
        assert_eq!(ends, n, "threads={n}: one end per chunk");
        let events = common::end_events();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.name == "test.fr.chunk")
            .collect();
        assert_eq!(spans.len(), n);
        assert!(spans.iter().all(|e| e.rows_in == 1));
    }
}

/// Overrunning one thread's ring must surface as dropped events in the
/// totals, the text report, and the JSON dump — never as a silent wrap.
#[test]
fn ring_saturation_surfaces_dropped_counts() {
    let _l = lock();
    trace::set_enabled(true);
    trace::reset();
    // Each span writes a begin and an end, so this overruns the
    // fixed-capacity per-thread ring several times over.
    for _ in 0..(2 * trace::EVENTS_PER_THREAD) {
        let _sp = trace::Span::enter("test.fr.flood");
    }
    trace::set_enabled(false);

    let dropped = trace::events::total_dropped();
    assert!(dropped > 0, "flood must overflow the ring");
    // Every span records a begin and an end; what the ring cannot retain
    // is accounted, not silently lost.
    let recorded = trace::events::total_recorded();
    assert_eq!(recorded, 4 * trace::EVENTS_PER_THREAD as u64);
    assert_eq!(dropped, recorded - trace::EVENTS_PER_THREAD as u64);

    let report = trace::report();
    assert!(report.contains("trace.events.dropped"), "{report}");
    let doc = trace::json::parse(&trace::to_json()).expect("trace JSON parses");
    let counters = doc
        .get("counters")
        .and_then(|c| match c {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        })
        .expect("counters object");
    let json_dropped = counters
        .iter()
        .find(|(k, _)| k == "trace.events.dropped")
        .and_then(|(_, v)| v.as_u64())
        .expect("trace.events.dropped counter in JSON");
    assert_eq!(json_dropped, dropped);
    let timelines = trace::timelines_snapshot();
    assert!(timelines.iter().any(|tl| tl.dropped > 0));
}

/// A panicking process with the hook installed dumps the flight recorder
/// to stderr. The child half runs in a subprocess so the panic (and the
/// abort-free unwind) stays out of the test harness.
#[test]
fn panic_hook_dumps_flight_recorder() {
    if std::env::var_os("RINGO_FR_PANIC_CHILD").is_some() {
        trace::set_enabled(true);
        trace::install_panic_hook();
        let _sp = trace::Span::enter("test.fr.doomed");
        panic!("flight recorder crash test");
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("--exact")
        .arg("panic_hook_dumps_flight_recorder")
        .arg("--nocapture")
        .env("RINGO_FR_PANIC_CHILD", "1")
        .output()
        .expect("spawn child test process");
    assert!(!out.status.success(), "child must panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("=== ringo flight recorder ==="),
        "panic hook dump missing from child stderr:\n{stderr}"
    );
    assert!(stderr.contains("test.fr.doomed"), "{stderr}");
}
