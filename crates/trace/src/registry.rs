//! The global lock-free metrics registry: named atomic [`Counter`]s and
//! fixed log2-bucket latency [`Histogram`]s.
//!
//! Slots live in two fixed-capacity arrays allocated once on first use.
//! Registration claims a slot by CAS-publishing the name pointer (linear
//! probing from the name's hash), so lookups and updates never take a
//! lock; after the one-time claim every operation is a relaxed atomic.
//! Capacity overflow (more distinct names than slots) merges the surplus
//! name into the slot its probe sequence started at — a slot another name
//! owns, so sinks credit the value to that name. Each such fall-through
//! is counted ([`Registry::overflow`]) and shown as
//! `trace.registry.overflow` in [`crate::report`] and the JSON dump, so
//! the misattribution is never silent.

use crate::sync::{VAtomicPtr, VAtomicU64};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

/// Number of log2 latency buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 additionally holds 0–1ns), and the last bucket is
/// a catch-all for everything at or above `2^(HIST_BUCKETS-1)` ns
/// (~9 minutes) — comfortably spanning 1ns to "more than a second".
pub const HIST_BUCKETS: usize = 40;

/// Counter slots in the global registry (see [`Registry::with_capacity`]
/// for dedicated instances).
const MAX_COUNTERS: usize = 256;
/// Histogram slots in the global registry.
const MAX_HISTS: usize = 128;

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
    name: VAtomicPtr<&'static str>,
    value: VAtomicU64,
}

impl Counter {
    const fn new() -> Self {
        Self {
            name: VAtomicPtr::new(std::ptr::null_mut()),
            value: VAtomicU64::new(0),
        }
    }

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
    name: VAtomicPtr<&'static str>,
    buckets: [VAtomicU64; HIST_BUCKETS],
    count: VAtomicU64,
    sum_ns: VAtomicU64,
    min_ns: VAtomicU64,
    max_ns: VAtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            name: VAtomicPtr::new(std::ptr::null_mut()),
            buckets: [const { VAtomicU64::new(0) }; HIST_BUCKETS],
            count: VAtomicU64::new(0),
            sum_ns: VAtomicU64::new(0),
            min_ns: VAtomicU64::new(u64::MAX),
            max_ns: VAtomicU64::new(0),
        }
    }

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

/// A metrics registry: fixed-capacity slot arrays with lock-free
/// CAS-claimed registration.
///
/// Most code talks to the process-wide instance through the free functions
/// ([`counter`], [`histogram`], the snapshots, [`reset`]). Dedicated
/// instances from [`Registry::with_capacity`] exist for tests — in
/// particular the `ringo-check` schedule-exploration tests, which claim
/// slots on a fresh registry per explored schedule so the CAS protocol is
/// exercised from its empty state every time.
pub struct Registry {
    counters: Box<[Counter]>,
    hists: Box<[Histogram]>,
    /// Lookups that found no free slot and fell through to another name's
    /// (kept across [`Registry::reset`]: the merged names stay merged).
    overflow: VAtomicU64,
}

impl Registry {
    /// Creates an empty registry with the given slot counts (minimum 1
    /// each).
    pub fn with_capacity(counters: usize, hists: usize) -> Self {
        Self {
            counters: (0..counters.max(1)).map(|_| Counter::new()).collect(),
            hists: (0..hists.max(1)).map(|_| Histogram::new()).collect(),
            overflow: VAtomicU64::new(0),
        }
    }

    /// The counter registered under `name` in this registry, claiming a
    /// slot on first use.
    pub fn counter(&self, name: &'static str) -> &Counter {
        lookup(&self.counters, |c| &c.name, name, &self.overflow)
    }

    /// The histogram registered under `name` in this registry, claiming a
    /// slot on first use.
    pub fn histogram(&self, name: &'static str) -> &Histogram {
        lookup(&self.hists, |h| &h.name, name, &self.overflow)
    }

    /// How many lookups found the registry full and merged their name
    /// into another name's slot.
    pub fn overflow(&self) -> u64 {
        // ORDERING: Relaxed — metric snapshot, no consistency promised.
        self.overflow.load(Ordering::Relaxed)
    }

    /// All registered counters of this instance, sorted by name.
    pub fn counters_snapshot(&self) -> Vec<CounterSnapshot> {
        let mut out: Vec<CounterSnapshot> = self
            .counters
            .iter()
            .filter_map(|c| {
                slot_name(&c.name).map(|name| CounterSnapshot {
                    name,
                    value: c.get(),
                })
            })
            .collect();
        out.sort_by_key(|c| c.name);
        out
    }

    /// All registered histograms of this instance, sorted by name.
    pub fn histograms_snapshot(&self) -> Vec<HistogramSnapshot> {
        let mut out: Vec<HistogramSnapshot> = self
            .hists
            .iter()
            .filter_map(|h| {
                let name = slot_name(&h.name)?;
                // ORDERING: Relaxed — metrics snapshot; fields of a
                // histogram being recorded concurrently may be mutually
                // inconsistent, which the API documents.
                let count = h.count.load(Ordering::Relaxed);
                let min = h.min_ns.load(Ordering::Relaxed);
                Some(HistogramSnapshot {
                    name,
                    count,
                    sum_ns: h.sum_ns.load(Ordering::Relaxed),
                    min_ns: if count == 0 || min == u64::MAX {
                        0
                    } else {
                        min
                    },
                    // ORDERING: Relaxed — same snapshot semantics as above.
                    max_ns: h.max_ns.load(Ordering::Relaxed),
                    buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                })
            })
            .collect();
        out.sort_by_key(|h| h.name);
        out
    }

    /// Zeroes all values of this instance while keeping registered names.
    pub fn reset(&self) {
        // ORDERING: Relaxed — see `Histogram::zero`.
        for c in self.counters.iter() {
            c.value.store(0, Ordering::Relaxed);
        }
        for h in self.hists.iter() {
            h.zero();
        }
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        // Reclaim the leaked name boxes of claimed slots. The global
        // instance never drops; this matters for per-test instances, which
        // would otherwise leak one box per claim per schedule explored.
        for p in self
            .counters
            .iter_mut()
            .map(|c| c.name.get_mut())
            .chain(self.hists.iter_mut().map(|h| h.name.get_mut()))
        {
            if !p.is_null() {
                // SAFETY: non-null name pointers come exclusively from
                // `Box::leak` in `lookup`, are never freed elsewhere, and
                // `&mut self` proves no reader can observe them again.
                drop(unsafe { Box::from_raw(*p) });
                *p = std::ptr::null_mut();
            }
        }
    }
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry::with_capacity(MAX_COUNTERS, MAX_HISTS))
}

/// FNV-1a, good enough to spread a handful of static names.
fn hash(name: &str) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h as usize
}

/// Claims-or-finds the slot for `name` in a probe sequence over `slots`,
/// keyed by each slot's published name pointer. Lock-free: the only write
/// is a one-time CAS per slot (plus a count in `overflow` when full).
fn lookup<'a, T>(
    slots: &'a [T],
    name_of: impl Fn(&T) -> &VAtomicPtr<&'static str>,
    name: &'static str,
    overflow: &VAtomicU64,
) -> &'a T {
    let start = hash(name) % slots.len();
    for off in 0..slots.len() {
        let slot = &slots[(start + off) % slots.len()];
        let name_cell = name_of(slot);
        let mut cur = name_cell.load(Ordering::Acquire);
        if cur.is_null() {
            let leaked: *mut &'static str = Box::leak(Box::new(name));
            match name_cell.compare_exchange(
                std::ptr::null_mut(),
                leaked,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return slot,
                Err(winner) => {
                    // Lost the race; free our candidate and inspect the
                    // winner's name below.
                    // SAFETY: `leaked` came from Box::leak above and was
                    // never published.
                    drop(unsafe { Box::from_raw(leaked) });
                    cur = winner;
                }
            }
        }
        // SAFETY: published pointers come exclusively from Box::leak and
        // are never freed.
        if unsafe { *cur } == name {
            return slot;
        }
    }
    // Registry full: merge into the probe start, and count it.
    // ORDERING: Relaxed — independent monotonic tally.
    overflow.fetch_add(1, Ordering::Relaxed);
    &slots[start]
}

/// The counter registered under `name` in the global registry, creating it
/// on first use.
pub fn counter(name: &'static str) -> &'static Counter {
    registry().counter(name)
}

/// The histogram registered under `name` in the global registry, creating
/// it on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    registry().histogram(name)
}

fn slot_name(p: &VAtomicPtr<&'static str>) -> Option<&'static str> {
    let p = p.load(Ordering::Acquire);
    // SAFETY: see `lookup` — published pointers are leaked boxes.
    (!p.is_null()).then(|| unsafe { *p })
}

/// [`Registry::overflow`] of the global registry.
pub(crate) fn overflow() -> u64 {
    registry().overflow()
}

/// All registered counters of the global registry, sorted by name.
pub fn counters_snapshot() -> Vec<CounterSnapshot> {
    registry().counters_snapshot()
}

/// All registered histograms of the global registry, sorted by name.
pub fn histograms_snapshot() -> Vec<HistogramSnapshot> {
    registry().histograms_snapshot()
}

/// Zeroes all values of the global registry while keeping registered names
/// (see [`crate::reset`]).
pub fn reset() {
    registry().reset()
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
    fn same_name_resolves_to_same_slot() {
        let a = counter("test.registry_same") as *const Counter;
        let b = counter("test.registry_same") as *const Counter;
        assert_eq!(a, b);
        let ha = histogram("test.registry_hist") as *const Histogram;
        let hb = histogram("test.registry_hist") as *const Histogram;
        assert_eq!(ha, hb);
    }

    #[test]
    fn full_registry_counts_each_fall_through() {
        let r = Registry::with_capacity(2, 2);
        r.counter("test.overflow_a").add(1);
        r.counter("test.overflow_b").add(1);
        assert_eq!(r.overflow(), 0, "two names fit two slots");
        r.counter("test.overflow_c").add(1);
        assert_eq!(r.overflow(), 1);
        // The third name's value landed on another name's slot.
        let total: u64 = r.counters_snapshot().iter().map(|c| c.value).sum();
        assert_eq!(total, 3);
        assert_eq!(r.counters_snapshot().len(), 2);
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
