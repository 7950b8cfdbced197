//! Schedule exploration over the worker pool's statistics protocol.
//!
//! The body runs on facade atomics, so every operation goes through the
//! deterministic scheduler. (The bitset's claim, the other lock-free
//! protocol that runs, has `model_bitset.rs`.) Each body is run under
//! `RINGO_CHECK_SCHEDULES` schedules (default 1000) per strategy; any
//! lost update panics with a replayable `RINGO_CHECK_SEED`.
//!
//! Bodies are kept to 2–3 virtual threads with a handful of operations
//! each: schedule exploration cost is exponential in operation count, and
//! small bodies are exactly where exhaustive-ish interleaving coverage
//! beats the big stress tests in `ringo-concurrent` itself.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ringo_check::vthread;

/// The pool-stats counter protocol (monotonic relaxed `fetch_add` deltas,
/// snapshot via relaxed loads, and the busy-executor gauge each chunk
/// enters and leaves), exercised on facade atomics directly: the real
/// pool's resident workers are foreign OS threads that must not join a
/// live schedule, so the protocol is reproduced 1:1 with virtual
/// threads. Totals must sum exactly — relaxed RMWs may not lose updates —
/// and the gauge must read 0 once every executor has finished.
#[test]
fn pool_stats_counters_sum_exactly() {
    use ringo_check::sync::{VAtomicU64, VAtomicUsize};
    ringo_check::check("pool_stats_sum", || {
        struct Stats {
            jobs: VAtomicU64,
            chunks: VAtomicU64,
            busy_ns: VAtomicU64,
            busy_workers: VAtomicUsize,
        }
        let stats = Arc::new(Stats {
            jobs: VAtomicU64::new(0),
            chunks: VAtomicU64::new(0),
            busy_ns: VAtomicU64::new(0),
            busy_workers: VAtomicUsize::new(0),
        });
        let handles: Vec<_> = (1..=2u64)
            .map(|w| {
                let s = stats.clone();
                vthread::spawn(move || {
                    s.jobs.fetch_add(1, Ordering::Relaxed);
                    for c in 0..2 {
                        let now = s.busy_workers.fetch_add(1, Ordering::Relaxed) + 1;
                        assert!((1..=2).contains(&now), "gauge out of range: {now}");
                        s.busy_ns.fetch_add(w * 10 + c, Ordering::Relaxed);
                        s.chunks.fetch_add(1, Ordering::Relaxed);
                        s.busy_workers.fetch_sub(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert_eq!(stats.jobs.load(Ordering::Relaxed), 2);
        assert_eq!(stats.chunks.load(Ordering::Relaxed), 4);
        assert_eq!(stats.busy_ns.load(Ordering::Relaxed), 10 + 11 + 20 + 21);
        assert_eq!(stats.busy_workers.load(Ordering::Relaxed), 0, "gauge");
    });
}
