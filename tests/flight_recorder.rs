//! Integration tests for the flight recorder: per-thread event
//! attribution under the worker pool, ring saturation accounting, and
//! the panic-hook dump.
//!
//! Trace state is process-global, so every test that mutates it
//! serializes through one lock and opens its own window with
//! `trace::reset()`.

use ringo::concurrent::Pool;
use ringo::trace::{self, json::JsonValue};
use std::sync::{Barrier, Mutex, MutexGuard};

mod common;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every chunk of a `Pool::with_workers(n)` job records a span with a
/// nested child, and a barrier forces all `n` chunks in flight at once —
/// so the drained timelines must show exactly `n` distinct recording
/// threads, each with one completed chunk span and its child nested
/// under it.
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
            let _child = trace::Span::enter("test.fr.child");
        });
        trace::set_enabled(false);

        let timelines = trace::timelines_snapshot();
        let mut tids = Vec::new();
        for tl in &timelines {
            let named =
                |name: &str| -> Vec<_> { tl.events.iter().filter(|e| e.name == name).collect() };
            let (chunks, children) = (named("test.fr.chunk"), named("test.fr.child"));
            if chunks.is_empty() {
                assert!(
                    children.is_empty(),
                    "child without its chunk on tid {}",
                    tl.tid
                );
                continue;
            }
            tids.push(tl.tid);
            // One completed span per chunk per thread, its child under it.
            assert_eq!((chunks.len(), children.len()), (1, 1), "tid {}", tl.tid);
            let (chunk, child) = (chunks[0], children[0]);
            assert_eq!(child.parent_id, chunk.span_id, "tid {}", tl.tid);
            assert_eq!(child.depth, chunk.depth + 1, "tid {}", tl.tid);
            assert!(child.seq < chunk.seq, "the child completes first");
            assert!(chunk.start_ns <= child.start_ns && child.t_ns <= chunk.t_ns);
        }
        assert_eq!(tids.len(), n, "threads={n}: one timeline per executor");
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
    // One event a span: twice the fixed-capacity per-thread ring.
    for _ in 0..(2 * trace::EVENTS_PER_THREAD) {
        let _sp = trace::Span::enter("test.fr.flood");
    }
    trace::set_enabled(false);

    let dropped = trace::events::total_dropped();
    assert!(dropped > 0, "flood must overflow the ring");
    // Every span records one event; what the ring cannot retain is
    // accounted, not silently lost.
    let recorded = trace::events::total_recorded();
    assert_eq!(recorded, 2 * trace::EVENTS_PER_THREAD as u64);
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

/// A span held open on a pool worker is in-flight work: a flight dump
/// taken from the main thread meanwhile lists it as open, under that
/// worker's thread.
#[test]
fn open_spans_on_workers_appear_in_the_flight_dump() {
    let _l = lock();
    trace::set_enabled(true);
    trace::reset();
    let pool = Pool::with_workers(2);
    // Both chunks and the main thread meet at each barrier, so the two
    // chunks run at once on two threads: at least one is a pool worker
    // (the dispatcher is the only other executor).
    let (held, dumped) = (Barrier::new(3), Barrier::new(3));
    let dump = std::thread::scope(|s| {
        s.spawn(|| {
            pool.run(2, &|_| {
                let name = std::thread::current().name().map(str::to_owned);
                let on_worker = name.is_some_and(|n| n.starts_with("ringo-worker-"));
                let _sp = on_worker.then(|| trace::Span::enter("test.fr.held"));
                held.wait();
                dumped.wait();
            });
        });
        held.wait();
        let dump = trace::flight_dump();
        dumped.wait();
        dump
    });
    trace::set_enabled(false);
    let lines: Vec<&str> = dump.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.contains("test.fr.held"))
        .unwrap_or_else(|| panic!("held span missing from the dump:\n{dump}"));
    assert!(lines[at].trim_start().starts_with("open "), "{dump}");
    assert!(lines[at].contains("running="), "{dump}");
    let header = lines[..at]
        .iter()
        .rfind(|l| l.starts_with("thread "))
        .expect("a thread header above the open span");
    assert!(header.contains("\"ringo-worker-"), "{dump}");
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
    // The span the panic unwinds through has not ended: it is in flight.
    assert!(
        stderr
            .lines()
            .any(|l| l.trim_start().starts_with("open ") && l.contains("test.fr.doomed")),
        "the doomed span is not listed as open:\n{stderr}"
    );
}
