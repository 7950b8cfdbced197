//! Schedule exploration over Ringo's real lock-free primitives.
//!
//! These tests compile `ringo-concurrent` and `ringo-trace` with their
//! `model` feature, so every atomic inside the metrics registry and the
//! pool-stats counter protocol goes through the deterministic scheduler.
//! (The bitset's claim has `model_bitset.rs`; the flight recorder's ring
//! has its model test beside the ring, in `ringo-trace`'s `events.rs`.)
//! Each body is run under `RINGO_CHECK_SCHEDULES` schedules (default
//! 1000) per strategy;
//! any lost update, duplicated slot, or stale publish panics with a
//! replayable `RINGO_CHECK_SEED`.
//!
//! Bodies are kept to 2–3 virtual threads with a handful of operations
//! each: schedule exploration cost is exponential in operation count, and
//! small bodies are exactly where exhaustive-ish interleaving coverage
//! beats the big stress tests in `ringo-concurrent` itself.

use ringo_trace::Registry;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ringo_check::vthread;

/// Registry slot claiming: concurrent `counter(name)` calls racing on the
/// same fresh registry must never claim two slots for one name (the CAS
/// publish), and adds through either handle must all land in that slot.
#[test]
fn registry_never_claims_one_name_twice() {
    ringo_check::check("registry_slot_claim", || {
        let reg = Arc::new(Registry::with_capacity(4, 1));
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let reg = reg.clone();
                vthread::spawn(move || {
                    // Both threads race on "shared"; each also claims a
                    // private name, all on a 4-slot array.
                    let shared = reg.counter("model.shared");
                    shared.add(1);
                    let own = reg.counter(if w == 0 { "model.a" } else { "model.b" });
                    own.add(10);
                    shared as *const _ as usize
                })
            })
            .collect();
        let ptrs: Vec<usize> = handles
            .into_iter()
            .map(|h| h.join().expect("claimer panicked"))
            .collect();
        assert_eq!(ptrs[0], ptrs[1], "one name must resolve to one slot");
        assert_eq!(reg.counter("model.shared").get(), 2, "lost increment");
        assert_eq!(reg.counter("model.a").get(), 10);
        assert_eq!(reg.counter("model.b").get(), 10);
        let snapshot = reg.counters_snapshot();
        assert_eq!(snapshot.len(), 3, "exactly three names registered");
    });
}

/// Histogram recording (fetch_add / fetch_min / fetch_max) from two
/// threads: aggregates must account for every observation.
#[test]
fn histogram_aggregates_are_exact() {
    ringo_check::check("histogram_aggregates", || {
        let reg = Arc::new(Registry::with_capacity(1, 2));
        let handles: Vec<_> = [(1u64, 100u64), (7u64, 3u64)]
            .into_iter()
            .map(|(a, b)| {
                let reg = reg.clone();
                vthread::spawn(move || {
                    let h = reg.histogram("model.hist");
                    h.record(a);
                    h.record(b);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder panicked");
        }
        let snap = reg
            .histograms_snapshot()
            .into_iter()
            .find(|s| s.name == "model.hist")
            .expect("histogram registered");
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_ns, 111);
        assert_eq!(snap.min_ns, 1);
        assert_eq!(snap.max_ns, 100);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4);
    });
}

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
