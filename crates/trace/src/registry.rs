//! The global metrics registry: named atomic [`Counter`]s and fixed
//! log2-bucket latency [`Histogram`]s.
//!
//! Each kind is one mutex-guarded map from name to handle, sorted by
//! name; a handle is leaked once, on its name's first lookup, and lives
//! for the process. A lookup takes the map's lock, but recording through
//! a handle is relaxed atomics and never locks, so hot paths keep the
//! `&'static` handle (the pool does).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of log2 latency buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 additionally holds 0–1ns), and the last bucket is
/// a catch-all for everything at or above `2^(HIST_BUCKETS-1)` ns
/// (~9 minutes) — comfortably spanning 1ns to "more than a second".
pub const HIST_BUCKETS: usize = 40;

/// Maps a nanosecond latency to its histogram bucket.
///
/// `0` and `1` ns land in bucket 0; each doubling moves one bucket up;
/// values beyond the last boundary clamp into the final catch-all bucket.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive lower and exclusive upper bound (in ns) of bucket `i`; the
/// last bucket's upper bound is `u64::MAX`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HIST_BUCKETS);
    let lo = if i == 0 { 0 } else { 1u64 << i };
    let hi = if i == HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    };
    (lo, hi)
}

/// A named monotonic atomic counter.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: Relaxed — independent monotonic metric; readers only
        // need an eventual total, never ordering against traced work.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — metric snapshot, no consistency promised.
        self.value.load(Ordering::Relaxed)
    }
}

/// A named fixed-bucket log2 latency histogram with count/sum/min/max.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Histogram {
    /// Records one latency observation of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        // ORDERING: Relaxed — each field is an independent monotonic
        // aggregate; snapshots promise no cross-field consistency.
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        // ORDERING: Relaxed — metric snapshot, no consistency promised.
        self.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self, name: &'static str) -> HistogramSnapshot {
        // ORDERING: Relaxed — metrics snapshot; fields of a histogram
        // being recorded concurrently may be mutually inconsistent, which
        // the API documents.
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            name,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 || min == u64::MAX {
                0
            } else {
                min
            },
            // ORDERING: Relaxed — same snapshot semantics as above.
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    fn zero(&self) {
        // ORDERING: Relaxed — reset is only meaningful between measurement
        // windows; concurrent recorders may straddle the boundary by design.
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one counter, for sinks.
#[derive(Clone, Copy, Debug)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// Point-in-time copy of one histogram, for sinks.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations (ns).
    pub sum_ns: u64,
    /// Smallest observation (0 when empty).
    pub min_ns: u64,
    /// Largest observation (0 when empty).
    pub max_ns: u64,
    /// Per-bucket observation counts; see [`bucket_bounds`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// Approximate quantile (`0.0..=1.0`) from the bucket counts, using
    /// each bucket's geometric midpoint; exact-enough for reports.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                let (lo, hi) = bucket_bounds(i);
                let hi = hi.min(self.max_ns.max(1));
                let lo = lo.max(self.min_ns);
                return lo.midpoint(hi.max(lo));
            }
        }
        self.max_ns
    }
}

static COUNTERS: Mutex<BTreeMap<&'static str, &'static Counter>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<&'static str, &'static Histogram>> = Mutex::new(BTreeMap::new());

/// The map behind `m`; a panic elsewhere leaves every handle whole.
fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The counter registered under `name`, creating it on first use.
pub fn counter(name: &'static str) -> &'static Counter {
    lock(&COUNTERS).entry(name).or_insert_with(|| {
        Box::leak(Box::new(Counter {
            value: AtomicU64::new(0),
        }))
    })
}

/// The histogram registered under `name`, creating it on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    lock(&HISTOGRAMS).entry(name).or_insert_with(|| {
        Box::leak(Box::new(Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }))
    })
}

/// All registered counters, sorted by name.
pub fn counters_snapshot() -> Vec<CounterSnapshot> {
    lock(&COUNTERS)
        .iter()
        .map(|(&name, c)| CounterSnapshot {
            name,
            value: c.get(),
        })
        .collect()
}

/// All registered histograms, sorted by name.
pub fn histograms_snapshot() -> Vec<HistogramSnapshot> {
    lock(&HISTOGRAMS)
        .iter()
        .map(|(&name, h)| h.snapshot(name))
        .collect()
}

/// Zeroes every counter and histogram while keeping registered names
/// (see [`crate::reset`]).
pub fn reset() {
    for c in lock(&COUNTERS).values() {
        // ORDERING: Relaxed — see `Histogram::zero`.
        c.value.store(0, Ordering::Relaxed);
    }
    for h in lock(&HISTOGRAMS).values() {
        h.zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_cover_1ns_to_over_1s() {
        // Bucket 0: 0ns and 1ns.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        // Each power of two starts a new bucket; the value just below
        // stays in the previous one.
        for i in 1..HIST_BUCKETS - 1 {
            let lo = 1u64 << i;
            assert_eq!(bucket_of(lo), i, "2^{i} opens bucket {i}");
            assert_eq!(
                bucket_of(lo - 1),
                i - 1,
                "2^{i}-1 stays in bucket {}",
                i - 1
            );
            assert_eq!(bucket_of(lo + lo / 2), i, "mid-bucket value");
        }
        // One second is ~2^30 ns, well inside the range; "more than a
        // second" maps to buckets >= 29 (2^29 ns = 0.54s).
        assert_eq!(bucket_of(1_000_000_000), 29);
        assert_eq!(bucket_of(2_000_000_000), 30);
        // The catch-all bucket absorbs everything huge.
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 62), HIST_BUCKETS - 1);
        // Bounds are consistent with bucket_of at both edges.
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_of(lo), i);
            if hi != u64::MAX {
                assert_eq!(bucket_of(hi - 1), i);
                assert_eq!(bucket_of(hi), i + 1);
            }
        }
    }

    #[test]
    fn same_name_resolves_to_same_handle() {
        let a = counter("test.registry_same") as *const Counter;
        let b = counter("test.registry_same") as *const Counter;
        assert_eq!(a, b);
        let ha = histogram("test.registry_hist") as *const Histogram;
        let hb = histogram("test.registry_hist") as *const Histogram;
        assert_eq!(ha, hb);
    }

    #[test]
    fn histogram_stats_accumulate() {
        let _l = crate::test_lock();
        crate::reset();
        let h = histogram("test.registry_stats");
        for ns in [1u64, 100, 10_000, 2_000_000_000] {
            h.record(ns);
        }
        let snap = histograms_snapshot()
            .into_iter()
            .find(|s| s.name == "test.registry_stats")
            .unwrap();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_ns, 2_000_010_101);
        assert_eq!(snap.min_ns, 1);
        assert_eq!(snap.max_ns, 2_000_000_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[bucket_of(2_000_000_000)], 1);
        // Quantiles are monotone and bounded by min/max.
        assert!(snap.quantile(0.0) >= snap.min_ns);
        assert!(snap.quantile(1.0) <= snap.max_ns);
        assert!(snap.quantile(0.5) <= snap.quantile(0.99));
        crate::reset();
    }

    #[test]
    fn concurrent_counter_increments_lose_no_updates() {
        let _l = crate::test_lock();
        crate::reset();
        let threads = 8;
        let per_thread = 50_000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let c = counter("test.registry_concurrent");
                    for _ in 0..per_thread {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(
            counter("test.registry_concurrent").get(),
            (threads * per_thread) as u64
        );
        crate::reset();
    }
}
