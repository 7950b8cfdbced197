//! OpenMP-style fork-join parallel loops on the persistent worker pool.
//!
//! Ringo parallelizes its critical loops with a handful of OpenMP pragmas
//! using static scheduling: an index range is cut into one contiguous chunk
//! per worker and each worker processes its chunk independently. These
//! helpers reproduce that model on top of [`crate::pool::Pool`], a
//! long-lived worker team created once per process — so a `parallel_for`
//! inside a table operator or a PageRank iteration costs a condvar wake,
//! not `threads` OS thread creations, exactly the amortization the paper's
//! interactivity numbers assume. Closures may still borrow from the
//! caller's stack like an OpenMP parallel region: every entry point blocks
//! until its last chunk finishes.
//!
//! All entry points take an explicit thread count so benchmarks can sweep
//! it; [`num_threads`] supplies a default honoring the `RINGO_THREADS`
//! environment variable.

use crate::pool::Pool;
use std::ops::Range;
use std::sync::Mutex;

/// Default worker count: `RINGO_THREADS` if set and positive, otherwise the
/// machine's available parallelism.
///
/// An unparsable or zero `RINGO_THREADS` is ignored, falling back to
/// available parallelism, and a warning is printed to stderr the first
/// time that happens so typos do not silently serialize (or oversubscribe)
/// a session.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("RINGO_THREADS") {
        match v.parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "ringo: ignoring invalid RINGO_THREADS={v:?} \
                         (expected a positive integer); using available \
                         parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `len` items into at most `threads` contiguous chunks of nearly
/// equal size. Returns the chunk boundaries; consecutive boundaries delimit
/// one chunk. Never returns empty chunks.
pub fn chunk_bounds(len: usize, threads: usize) -> Vec<usize> {
    let threads = threads.max(1).min(len.max(1));
    let base = len / threads;
    let extra = len % threads;
    let mut bounds = Vec::with_capacity(threads + 1);
    let mut pos = 0;
    bounds.push(0);
    for t in 0..threads {
        pos += base + usize::from(t < extra);
        bounds.push(pos);
    }
    bounds
}

/// Runs `body(chunk_index, index_range)` over `0..len` split statically
/// across `threads` workers of the process-wide pool. Equivalent to
/// `#pragma omp parallel for schedule(static)`.
///
/// With `threads <= 1` (or a single chunk) the body runs on the calling
/// thread, so the function is cheap to call for small inputs.
///
/// ```
/// use ringo_concurrent::parallel_for;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let data: Vec<u64> = (0..10_000).collect();
/// let sum = AtomicU64::new(0);
/// parallel_for(data.len(), 4, |_worker, range| {
///     let local: u64 = range.map(|i| data[i]).sum();
///     sum.fetch_add(local, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 10_000 * 9_999 / 2);
/// ```
pub fn parallel_for<F>(len: usize, threads: usize, body: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let bounds = chunk_bounds(len, threads);
    let chunks = bounds.len() - 1;
    if chunks <= 1 {
        body(0, 0..len);
        return;
    }
    Pool::global().run(chunks, &|t| body(t, bounds[t]..bounds[t + 1]));
}

/// Runs `body(index_range)` per chunk and collects one result per chunk, in
/// chunk order. The workhorse for "each thread produces a partial result,
/// the caller combines them" patterns (histograms, partial sums, partial
/// output buffers).
pub fn parallel_map<T, F>(len: usize, threads: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let bounds = chunk_bounds(len, threads);
    let chunks = bounds.len() - 1;
    if chunks <= 1 {
        return vec![body(0..len)];
    }
    // One slot per chunk; each chunk writes only its own index, so a plain
    // mutex around the whole vector would serialize nothing of consequence
    // (chunks ≤ threads writes total) — but std::sync::Mutex per write is
    // still avoidable: slots are disjoint, use the same erased-window trick
    // as the sorter.
    let mut slots: Vec<Option<T>> = (0..chunks).map(|_| None).collect();
    {
        let slots_ptr = SendPtr(slots.as_mut_ptr());
        Pool::global().run(chunks, &|t| {
            let result = body(bounds[t]..bounds[t + 1]);
            // SAFETY: chunk `t` exclusively owns slot `t`; the vector
            // outlives the blocking `run` call.
            unsafe { *slots_ptr.get().add(t) = Some(result) };
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("every chunk fills its slot"))
        .collect()
}

/// Default rows per morsel for morsel-driven operators: small enough that
/// a worst-case `u32` hit list per morsel (256KB) stays cache-resident,
/// large enough that claiming a morsel from the pool's shared counter is
/// noise next to scanning it.
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Rows per morsel: `RINGO_MORSEL_ROWS` if set and positive, otherwise
/// [`DEFAULT_MORSEL_ROWS`]. Parsed once; an invalid value warns to stderr
/// (same policy as `RINGO_THREADS`).
pub fn morsel_rows() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var("RINGO_MORSEL_ROWS") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => return n,
                _ => eprintln!(
                    "ringo: ignoring invalid RINGO_MORSEL_ROWS={v:?} \
                     (expected a positive integer); using {DEFAULT_MORSEL_ROWS}"
                ),
            }
        }
        DEFAULT_MORSEL_ROWS
    })
}

/// Splits `0..len` into fixed-size morsels of [`morsel_rows`] rows (the
/// last morsel may be short). Returns morsel boundaries like
/// [`chunk_bounds`]. Unlike `chunk_bounds`, the partition depends only on
/// `len` — **never** on the thread count — which is what lets
/// morsel-driven operators produce bit-identical results (including
/// float accumulation order) at every thread count.
pub fn morsel_bounds(len: usize) -> Vec<usize> {
    let m = morsel_rows();
    let n = len.div_ceil(m).max(1);
    let mut bounds = Vec::with_capacity(n + 1);
    for i in 0..n {
        bounds.push(i * m);
    }
    bounds.push(len);
    bounds
}

/// How a morsel-driven dispatch actually ran: how many morsels the index
/// space split into, how many distinct threads executed at least one of
/// them (the *effective* worker count — what the plan executor surfaces
/// per node), and how the busy time divided between those threads (the
/// per-worker busy share `QueryBuilder::profile` renders).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MorselStats {
    /// Morsels dispatched (≥ 1 for any non-degenerate input).
    pub morsels: u32,
    /// Distinct threads that executed at least one morsel.
    pub workers: u32,
    /// Nanoseconds spent inside morsel bodies per distinct executing
    /// thread, sorted descending (one entry per worker counted in
    /// `workers`). The spread exposes skew: a balanced dispatch has
    /// near-equal entries, a skewed one is dominated by the first.
    pub busy_ns: Vec<u64>,
}

/// Runs `body(morsel_index, index_range)` over `0..len` split into
/// fixed-size morsels (see [`morsel_bounds`]) and collects one result per
/// morsel, **in morsel order**. Morsels are claimed dynamically from the
/// pool's shared counter, so a worker stuck on an expensive morsel does
/// not hold up the rest — the morsel-driven scheduling discipline, in
/// contrast to [`parallel_map`]'s static one-chunk-per-worker split.
///
/// With `threads <= 1` the morsels run inline on the calling thread, in
/// order — the *same* per-morsel partition, so partial results (and any
/// float accumulation order derived from them) are identical at every
/// thread count.
pub fn parallel_map_morsels<T, F>(len: usize, threads: usize, body: F) -> (Vec<T>, MorselStats)
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    morsel_dispatch(None, len, threads, body)
}

/// [`parallel_map_morsels`] with flight-recorder attribution: every morsel
/// body runs inside a trace span named `span` (rows-in = morsel length),
/// recorded into the executing thread's per-thread event buffer. On the
/// dispatching thread the morsel spans nest under the caller's open
/// operator span; on pool workers they are that thread's top-level spans
/// — which is how the trace dump's events show per-worker timelines.
pub fn parallel_map_morsels_traced<T, F>(
    span: &'static str,
    len: usize,
    threads: usize,
    body: F,
) -> (Vec<T>, MorselStats)
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    morsel_dispatch(Some(span), len, threads, body)
}

/// [`parallel_map_morsels`] without per-morsel results: runs
/// `body(morsel_index, index_range)` for every morsel, dynamically
/// scheduled. Callers that write output do so through disjoint windows
/// (per-morsel offsets), exactly like the static [`parallel_for`] users.
pub fn parallel_for_morsels<F>(len: usize, threads: usize, body: F) -> MorselStats
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let (_, stats) = parallel_map_morsels(len, threads, body);
    stats
}

/// [`parallel_for_morsels`] with flight-recorder attribution; see
/// [`parallel_map_morsels_traced`].
pub fn parallel_for_morsels_traced<F>(
    span: &'static str,
    len: usize,
    threads: usize,
    body: F,
) -> MorselStats
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let (_, stats) = parallel_map_morsels_traced(span, len, threads, body);
    stats
}

/// Shared implementation of the morsel dispatchers: splits `0..len` into
/// fixed-size morsels, runs them (inline or dynamically claimed on the
/// pool), optionally wraps each body in a trace span, and accounts busy
/// nanoseconds per executing thread for [`MorselStats::busy_ns`].
fn morsel_dispatch<T, F>(
    span: Option<&'static str>,
    len: usize,
    threads: usize,
    body: F,
) -> (Vec<T>, MorselStats)
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let bounds = morsel_bounds(len);
    let morsels = bounds.len() - 1;
    let timed = |m: usize| -> (T, u64) {
        let range = bounds[m]..bounds[m + 1];
        let started = std::time::Instant::now();
        let out = match span {
            Some(name) => {
                let mut sp = ringo_trace::Span::enter(name);
                sp.rows_in(range.len());
                body(m, range)
            }
            None => body(m, range),
        };
        (out, started.elapsed().as_nanos() as u64)
    };
    if threads <= 1 || morsels <= 1 {
        let mut busy = 0u64;
        let out = (0..morsels)
            .map(|m| {
                let (v, ns) = timed(m);
                busy += ns;
                v
            })
            .collect();
        return (
            out,
            MorselStats {
                morsels: morsels as u32,
                workers: 1,
                busy_ns: vec![busy],
            },
        );
    }
    let mut slots: Vec<Option<T>> = (0..morsels).map(|_| None).collect();
    let workers: std::sync::Mutex<std::collections::HashMap<std::thread::ThreadId, u64>> =
        std::sync::Mutex::new(std::collections::HashMap::new());
    {
        let slots_ptr = SendPtr(slots.as_mut_ptr());
        Pool::global().run(morsels, &|m| {
            let (result, ns) = timed(m);
            *workers
                .lock()
                .expect("morsel worker set poisoned")
                .entry(std::thread::current().id())
                .or_insert(0) += ns;
            // SAFETY: morsel `m` exclusively owns slot `m`; the vector
            // outlives the blocking `run` call.
            unsafe { *slots_ptr.get().add(m) = Some(result) };
        });
    }
    let mut busy_ns: Vec<u64> = workers
        .into_inner()
        .expect("morsel worker set poisoned")
        .into_values()
        .collect();
    busy_ns.sort_unstable_by(|a, b| b.cmp(a));
    let distinct = busy_ns.len();
    (
        slots
            .into_iter()
            .map(|s| s.expect("every morsel fills its slot"))
            .collect(),
        MorselStats {
            morsels: morsels as u32,
            workers: distinct as u32,
            busy_ns,
        },
    )
}

/// Runs `body(i)` for every `i` in `0..items` with items claimed
/// dynamically from the pool's shared counter — load balancing for
/// heterogeneous work items (e.g. skewed radix buckets) where a static
/// contiguous split would serialize behind the biggest item.
///
/// `threads` only chooses between the sequential loop (`<= 1`) and the
/// pool: there is no chunking for it to size, so any larger value runs on
/// every pool worker. The stateless case of [`parallel_for_dynamic_with`].
pub fn parallel_for_dynamic<F>(items: usize, threads: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_dynamic_with(items, threads, || (), |(), i| body(i));
}

/// [`parallel_for_dynamic`] with scratch state per executor: each item
/// runs as `body(&mut state, i)` on a state that `init` built, and that
/// no other item uses at the same time. A state outlives its item and is
/// handed to a later one, so a kernel that needs a buffer the size of
/// its input allocates it once per executor, not once per item. `body`
/// must leave the state fit for whatever item comes next.
///
/// States are built only when every built one is in use, so `init` runs
/// at most once per executor that ran concurrently: once in the
/// sequential loop, at most the pool's workers plus the calling thread on
/// the pool. Which state serves which item varies from run to run; a
/// result that must not depend on the thread count must not depend on
/// the state either.
///
/// ```
/// use ringo_concurrent::parallel_for_dynamic_with;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let sum = AtomicU64::new(0);
/// parallel_for_dynamic_with(
///     100,
///     4,
///     || Vec::with_capacity(10),
///     |digits: &mut Vec<u64>, i| {
///         digits.extend((0..10).map(|d| (i * 10 + d) as u64));
///         sum.fetch_add(digits.drain(..).sum(), Ordering::Relaxed);
///     },
/// );
/// assert_eq!(sum.into_inner(), 1000 * 999 / 2);
/// ```
pub fn parallel_for_dynamic_with<S, I, F>(items: usize, threads: usize, init: I, body: F)
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    if threads <= 1 || items <= 1 {
        if items > 0 {
            let mut state = init();
            (0..items).for_each(|i| body(&mut state, i));
        }
        return;
    }
    let pool = Pool::global();
    // The states between items. An item pops one, or builds one if all
    // are in use, and pushes it back: at most one per executor, and the
    // pool's claim counter stays the one that hands out items.
    let idle = Mutex::new(Vec::with_capacity(pool.workers() + 1));
    let lock = || idle.lock().expect("idle executor states poisoned");
    pool.run(items, &|i| {
        let popped = lock().pop();
        let mut state = popped.unwrap_or_else(&init);
        body(&mut state, i);
        lock().push(state);
    });
}

/// Applies `body(chunk_index, chunk_start, chunk)` to disjoint mutable
/// chunks of `data`, one chunk per worker. This is the write-side
/// counterpart of [`parallel_for`]: threads share nothing, so no locking is
/// needed — the pattern Ringo uses for graph-to-table export where each
/// thread owns a pre-assigned partition of the output table.
pub fn parallel_for_each_chunk_mut<T, F>(data: &mut [T], threads: usize, body: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let len = data.len();
    let bounds = chunk_bounds(len, threads);
    let chunks = bounds.len() - 1;
    if chunks <= 1 {
        body(0, 0, data);
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    Pool::global().run(chunks, &|t| {
        let (lo, hi) = (bounds[t], bounds[t + 1]);
        // SAFETY: `[lo, hi)` windows are pairwise disjoint across chunks
        // and in-bounds; `data` outlives the blocking `run` call.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
        body(t, lo, chunk);
    });
}

/// Shared mutable slice handed to workers that provably touch disjoint
/// index windows. This is the one aliasing escape hatch of the parallel
/// runtime: the unsafe surface is confined to [`DisjointSlice::slice_mut`]
/// and [`DisjointSlice::write`], whose callers must guarantee that no index
/// is written concurrently from two workers. Used by the radix sorter
/// (scatter cursors partition the output) and the conversion fill phase
/// (disjoint slab ranges per node).
pub struct DisjointSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: shared access only hands out pairwise-disjoint windows (the
// caller contract of `slice_mut`/`write`), so no two threads alias.
unsafe impl<T: Send> Sync for DisjointSlice<T> {}

impl<T> DisjointSlice<T> {
    /// Wraps `slice` for disjoint concurrent writes. The wrapper holds a
    /// raw pointer, so the caller must keep the underlying storage alive
    /// and un-moved for as long as the cell is used.
    pub fn new(slice: &mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// Callers must ensure `[lo, hi)` windows obtained concurrently are
    /// pairwise disjoint and within bounds. The `&self` receiver is what
    /// lets workers share the cell; disjointness is the aliasing argument.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        debug_assert!(lo <= hi && hi <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }

    /// Writes one element.
    ///
    /// # Safety
    /// `i` must be in bounds and written by at most one worker for the
    /// lifetime of the concurrent region.
    #[inline(always)]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        self.ptr.add(i).write(value);
    }
}

/// A raw pointer that may cross thread boundaries. Callers must uphold the
/// usual aliasing rules themselves (disjoint writes per chunk). Accessed
/// through [`SendPtr::get`] so closures capture the whole wrapper (edition
/// 2021 disjoint capture would otherwise grab the bare non-`Sync` field).
struct SendPtr<T>(*mut T);

// SAFETY: the wrapper only makes the pointer *transferable*; every
// dereference site upholds disjointness itself (see struct docs).
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_bounds_cover_range_exactly() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for threads in [1usize, 2, 3, 8, 200] {
                let b = chunk_bounds(len, threads);
                assert_eq!(*b.first().unwrap(), 0);
                assert_eq!(*b.last().unwrap(), len);
                for w in b.windows(2) {
                    assert!(w[0] <= w[1]);
                    if len >= threads {
                        assert!(w[1] > w[0], "empty chunk for len={len} threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_for_touches_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 4, |_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_single_thread_runs_inline() {
        let mut sum = 0u64;
        // With threads=1 the closure runs on this thread, so a non-Sync
        // mutation through a cell is safe; use a plain loop to check range.
        parallel_for(5, 1, |tid, range| {
            assert_eq!(tid, 0);
            assert_eq!(range, 0..5);
        });
        for i in 0..5u64 {
            sum += i;
        }
        assert_eq!(sum, 10);
    }

    #[test]
    fn parallel_map_preserves_chunk_order() {
        let parts = parallel_map(100, 4, |range| range.start);
        let mut sorted = parts.clone();
        sorted.sort_unstable();
        assert_eq!(parts, sorted);
        assert_eq!(parts.len(), 4);
    }

    #[test]
    fn chunk_mut_writes_disjoint_partitions() {
        let mut data = vec![0usize; 1000];
        parallel_for_each_chunk_mut(&mut data, 7, |_, start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = start + off;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn zero_length_is_a_noop() {
        parallel_for(0, 4, |_, range| assert!(range.is_empty()));
        let parts = parallel_map(0, 4, |range| range.len());
        assert_eq!(parts, vec![0]);
    }

    #[test]
    fn more_threads_than_items_does_not_panic() {
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(3, 16, |_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn repeated_parallel_for_never_spawns_per_call() {
        // Warm the pool up, then check that 200 further dispatches change
        // only the job counters — never the worker count. The stats are
        // process-global and sibling tests dispatch on the same pool, so
        // the deltas are lower bounds (the exact count is pinned on a
        // dedicated pool in `pool::tests`).
        parallel_for(64, 4, |_, _| {});
        let before = crate::pool::pool_stats();
        for _ in 0..200 {
            parallel_for(64, 4, |_, range| {
                std::hint::black_box(range.sum::<usize>());
            });
        }
        let after = crate::pool::pool_stats();
        assert_eq!(after.workers, before.workers, "pool size is constant");
        assert!(after.jobs_dispatched - before.jobs_dispatched >= 200);
        assert!(after.chunks_executed - before.chunks_executed >= 200);
    }

    #[test]
    fn dynamic_with_runs_every_item_once_on_at_most_one_state_an_executor() {
        let executors = Pool::global().workers() + 1;
        for threads in [1, 2, 4] {
            let items = 1_000;
            let hits: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
            let inits = AtomicUsize::new(0);
            parallel_for_dynamic_with(
                items,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            let inits = inits.into_inner();
            if threads == 1 {
                assert_eq!(inits, 1, "one state in the sequential loop");
            } else {
                assert!(
                    (1..=executors).contains(&inits),
                    "{inits} states for {executors} executors at {threads} threads"
                );
            }
        }
        parallel_for_dynamic_with(0, 4, || panic!("no item, no state"), |(), _| {});
    }

    #[test]
    fn parallel_map_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(1000, 4, |range| {
                if range.start == 0 {
                    panic!("first chunk fails");
                }
                range.len()
            })
        });
        assert!(caught.is_err());
    }
}
