//! Persistent fork-join worker pool.
//!
//! The paper's interactivity argument (§2.5) assumes OpenMP-style parallel
//! regions whose fork-join cost is amortized by a resident thread team:
//! every table operator and every PageRank iteration opens a region, so
//! paying OS thread creation per region would dominate small and medium
//! inputs. This module provides that resident team. A process-wide pool of
//! `N` workers is created lazily on first use (`N` from [`num_threads`],
//! which honors `RINGO_THREADS`) and lives for the rest of the process;
//! [`Pool::run`] dispatches one fork-join job onto it and returns when
//! every chunk of the job has executed.
//!
//! Scheduling is static in the OpenMP `schedule(static)` sense: the caller
//! pre-partitions its index space into contiguous chunks (one per
//! requested worker, see [`crate::parallel::chunk_bounds`]) and the pool
//! never re-splits them. Which physical worker executes which chunk is
//! first-come — workers claim chunk indices from a shared atomic counter —
//! so a job asking for more parallelism than the pool has workers still
//! completes, and nested `run` calls issued from inside a worker cannot
//! deadlock: the dispatching thread always participates in executing its
//! own job, so every job drains even if all pool workers are busy
//! elsewhere.
//!
//! Panics inside a chunk are caught, the remaining chunks still run (the
//! fork-join contract: the region completes), and the first panic payload
//! is re-thrown on the dispatching thread — the same observable behavior
//! as the scoped-thread implementation this replaces, minus the per-call
//! spawns.
//!
//! [`num_threads`]: crate::parallel::num_threads

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Cached registry handles for the `ringo-trace` wiring, so the per-chunk
/// hot path pays one pointer load instead of a name lookup. All three feed
/// the registry with *deltas* (`add`), which is what lets
/// `ringo_trace::reset()` open a clean measurement window even though the
/// pool's own cumulative [`PoolStats`] keep counting from process start.
struct TraceCounters {
    jobs: &'static ringo_trace::Counter,
    chunks: &'static ringo_trace::Counter,
    busy_ns: &'static ringo_trace::Counter,
}

fn trace_counters() -> &'static TraceCounters {
    static COUNTERS: OnceLock<TraceCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| TraceCounters {
        jobs: ringo_trace::counter("pool.jobs_dispatched"),
        chunks: ringo_trace::counter("pool.chunks_executed"),
        busy_ns: ringo_trace::counter("pool.busy_ns"),
    })
}

/// A chunk body with its lifetime erased to `'static`. Only [`Pool::run`]
/// creates these, and it blocks until all chunks finish, so the borrow is
/// live for every dereference despite the lie in the lifetime.
struct Task {
    func: &'static (dyn Fn(usize) + Sync),
}

/// Completion state of one dispatched job, guarded by `Job::done`.
struct JobDone {
    /// Chunks not yet finished executing.
    remaining: usize,
    /// First panic payload caught in a chunk, re-thrown by the dispatcher.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One fork-join job: `chunks` calls of `task.func(t)` for `t` in
/// `0..chunks`, each executed exactly once.
///
/// Invariant: `task.func` is dereferenced only after claiming `t <
/// chunks` from `next`, and every claimed chunk decrements `remaining`
/// when done. `Pool::run` returns (invalidating the pointer) only once
/// `remaining == 0`, hence no dangling use.
struct Job {
    task: Task,
    chunks: usize,
    /// Next unclaimed chunk index; values `>= chunks` mean "drained".
    next: AtomicUsize,
    done: Mutex<JobDone>,
    done_cv: Condvar,
}

impl Job {
    /// True when every chunk index has been claimed (not necessarily
    /// finished); such a job no longer offers work to idle workers.
    fn drained(&self) -> bool {
        // ORDERING: Relaxed is enough — a stale answer only makes a worker
        // attempt a claim that `fetch_add` then rejects, or skip a job it
        // will revisit on the next queue wakeup.
        self.next.load(Ordering::Relaxed) >= self.chunks
    }
}

/// State shared between the dispatcher side and the worker threads.
struct Shared {
    /// Jobs that may still have unclaimed chunks. Kept tiny: one entry per
    /// in-flight `Pool::run`, removed by the dispatcher on completion.
    queue: Mutex<Vec<Arc<Job>>>,
    /// Signals workers that the queue gained a job with unclaimed chunks.
    work_cv: Condvar,
    jobs_dispatched: AtomicU64,
    chunks_executed: AtomicU64,
    busy_nanos: AtomicU64,
    /// Executors (workers and dispatching threads) currently engaged in
    /// chunk bodies of some job — the pool's busy/idle instrumentation.
    busy_workers: AtomicUsize,
}

/// Observability snapshot of a [`Pool`], taken with [`Pool::stats`].
///
/// `busy` aggregates wall-clock time spent inside chunk bodies across all
/// executors (workers and dispatching threads), so `busy / elapsed` bounds
/// the pool's effective parallelism from below.
#[derive(Clone, Copy, Debug)]
pub struct PoolStats {
    /// Worker threads owned by the pool (constant after creation).
    pub workers: usize,
    /// Fork-join jobs dispatched through the pool since creation.
    pub jobs_dispatched: u64,
    /// Chunks executed across all jobs.
    pub chunks_executed: u64,
    /// Cumulative time spent executing chunk bodies.
    pub busy: Duration,
    /// Executors currently inside chunk bodies at snapshot time (a
    /// point-in-time gauge, unlike the cumulative fields above).
    pub busy_workers: usize,
}

/// A persistent team of worker threads executing fork-join jobs.
///
/// Most code should not construct one: [`Pool::global`] returns the lazily
/// created process-wide instance that all `parallel_*` helpers dispatch
/// to. Dedicated instances (e.g. [`Pool::with_workers`]) exist for tests
/// and benchmarks that need a pool of known size.
pub struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

impl Pool {
    /// Creates a pool owning exactly `workers` threads (at least one).
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            jobs_dispatched: AtomicU64::new(0),
            chunks_executed: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            busy_workers: AtomicUsize::new(0),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ringo-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker");
        }
        Self { shared, workers }
    }

    /// The process-wide pool, created on first use with
    /// [`num_threads`](crate::parallel::num_threads) workers.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::with_workers(crate::parallel::num_threads()))
    }

    /// Number of worker threads owned by this pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `body(t)` for every `t` in `0..chunks`, in parallel on the
    /// pool plus the calling thread, returning when all chunks finished.
    ///
    /// If any chunk panics, the remaining chunks still run and the first
    /// panic payload is resumed on the caller once the job completes.
    /// `chunks <= 1` runs inline without touching the pool.
    pub fn run(&self, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if chunks == 1 {
            body(0);
            return;
        }
        // ORDERING: Relaxed — monotonic statistics counter; readers only
        // need eventual totals, never ordering against job effects.
        self.shared.jobs_dispatched.fetch_add(1, Ordering::Relaxed);
        if ringo_trace::enabled() {
            trace_counters().jobs.add(1);
        }
        let task = Task {
            // SAFETY: erasing the borrow's lifetime is sound because this
            // function blocks until `remaining == 0`, i.e. until no
            // executor can dereference `func` again (see `Job` invariants).
            func: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    body,
                )
            },
        };
        let job = Arc::new(Job {
            task,
            chunks,
            next: AtomicUsize::new(0),
            done: Mutex::new(JobDone {
                remaining: chunks,
                panic: None,
            }),
            done_cv: Condvar::new(),
        });

        self.shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .push(Arc::clone(&job));
        self.shared.work_cv.notify_all();

        // The dispatcher is part of the team: it claims chunks like any
        // worker, which both uses the calling thread's core and guarantees
        // progress for nested jobs dispatched from inside a worker.
        execute_chunks(&self.shared, &job);

        let mut d = job.done.lock().expect("pool job state poisoned");
        while d.remaining > 0 {
            d = job.done_cv.wait(d).expect("pool job state poisoned");
        }
        let panic = d.panic.take();
        drop(d);

        self.shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .retain(|j| !Arc::ptr_eq(j, &job));
        // A worker that took the job lets go of it just after its last
        // claim fails. Wait for that, so the job is freed here and not
        // later on a worker, in the middle of whatever the caller does
        // next (an allocation count, say).
        while Arc::strong_count(&job) > 1 {
            std::thread::yield_now();
        }

        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Counters snapshot; see [`PoolStats`].
    pub fn stats(&self) -> PoolStats {
        // ORDERING: Relaxed — statistics snapshot; each counter is
        // independently monotonic and no cross-counter consistency is
        // promised by the API.
        PoolStats {
            workers: self.workers,
            jobs_dispatched: self.shared.jobs_dispatched.load(Ordering::Relaxed),
            chunks_executed: self.shared.chunks_executed.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.shared.busy_nanos.load(Ordering::Relaxed)),
            busy_workers: self.shared.busy_workers.load(Ordering::Relaxed),
        }
    }
}

/// Convenience: [`PoolStats`] of the global pool.
pub fn pool_stats() -> PoolStats {
    Pool::global().stats()
}

/// Body of each resident worker: sleep until some job has unclaimed
/// chunks, help drain it, repeat forever. Workers are daemon threads; they
/// die with the process.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.iter().find(|j| !j.drained()) {
                    break Arc::clone(job);
                }
                q = shared.work_cv.wait(q).expect("pool queue poisoned");
            }
        };
        execute_chunks(shared, &job);
    }
}

/// Claims and executes chunks of `job` until none are left unclaimed.
/// Shared by workers and dispatching threads. While this executor runs a
/// chunk body it counts as *busy* in the pool's busy-worker gauge
/// ([`PoolStats::busy_workers`]). It leaves the gauge before it
/// reports the chunk done, so once a job completes its executors have
/// all left the gauge, a panicking chunk's executor included.
fn execute_chunks(shared: &Shared, job: &Job) {
    loop {
        // ORDERING: Relaxed — the claim only needs atomicity (each index
        // handed out once); the chunk body's effects are published by the
        // `done` mutex, not by this counter.
        let t = job.next.fetch_add(1, Ordering::Relaxed);
        if t >= job.chunks {
            break;
        }
        // ORDERING: Relaxed — point-in-time gauge for observability
        // snapshots; no data is published through it.
        shared.busy_workers.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        // `t < chunks` was claimed exclusively above, so the dispatcher is
        // still blocked in `Pool::run` and the erased borrow is alive.
        let func = job.task.func;
        let result = catch_unwind(AssertUnwindSafe(|| func(t)));
        let busy = started.elapsed().as_nanos() as u64;
        // ORDERING: Relaxed — monotonic statistics counters (see `stats`).
        shared.busy_nanos.fetch_add(busy, Ordering::Relaxed);
        shared.chunks_executed.fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — gauge decrement; the `done` mutex below
        // orders it before the dispatcher's return from `Pool::run`.
        shared.busy_workers.fetch_sub(1, Ordering::Relaxed);
        if ringo_trace::enabled() {
            let tc = trace_counters();
            tc.chunks.add(1);
            tc.busy_ns.add(busy);
        }

        let mut d = job.done.lock().expect("pool job state poisoned");
        d.remaining -= 1;
        if let Err(payload) = result {
            d.panic.get_or_insert(payload);
        }
        if d.remaining == 0 {
            job.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = Pool::with_workers(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run(64, &|t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn repeated_jobs_reuse_the_same_workers() {
        // The statistics counters are relaxed `fetch_add`s from every
        // executor at once: the deltas must sum exactly at every pool size,
        // and the busy gauge must be back at 0 once the jobs return. Each
        // job has one chunk an executor, held at a barrier until all have
        // started, so the executors update the counters together.
        const JOBS: usize = 500;
        for workers in [1, 2, 4] {
            let chunks = workers + 1;
            let pool = Pool::with_workers(workers);
            let start = Barrier::new(chunks);
            let before = pool.stats();
            let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            for _ in 0..JOBS {
                pool.run(chunks, &|_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    start.wait();
                });
            }
            let after = pool.stats();
            assert_eq!(after.workers, before.workers, "no workers created per call");
            assert_eq!(after.jobs_dispatched - before.jobs_dispatched, JOBS as u64);
            assert_eq!(
                after.chunks_executed - before.chunks_executed,
                (JOBS * chunks) as u64
            );
            assert_eq!(after.busy_workers, 0, "gauge after {workers} workers");
            // Executors are exactly the resident workers plus this test
            // thread: the jobs never spawned a fresh OS thread.
            assert_eq!(ids.lock().unwrap().len(), chunks, "executor threads");
            assert!(after.busy > before.busy, "busy time accumulates");
        }
    }

    #[test]
    fn panic_propagates_with_original_payload() {
        let pool = Pool::with_workers(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|t| {
                if t == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk 5 exploded");
        // Every executor left the busy gauge, the one that panicked too.
        assert_eq!(pool.stats().busy_workers, 0, "gauge after the panic");
        // The pool survives a panicked job.
        let ran = AtomicUsize::new(0);
        pool.run(4, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        assert_eq!(pool.stats().busy_workers, 0, "gauge after the next job");
    }

    #[test]
    fn more_chunks_than_workers_completes() {
        let pool = Pool::with_workers(2);
        let count = AtomicUsize::new(0);
        pool.run(97, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 97);
    }

    #[test]
    fn nested_jobs_do_not_deadlock() {
        let pool = Pool::global();
        let total = AtomicUsize::new(0);
        // Saturate the pool with outer chunks that each dispatch an inner
        // job; dispatcher participation guarantees the inner jobs drain.
        crate::parallel::parallel_for(8, 8, |_, outer| {
            for _ in outer {
                crate::parallel::parallel_for(16, 4, |_, inner| {
                    total.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16);
        assert!(pool.stats().jobs_dispatched > 0);
    }

    #[test]
    fn zero_and_one_chunk_run_inline() {
        let pool = Pool::with_workers(2);
        let before = pool.stats();
        pool.run(0, &|_| panic!("no chunks, no calls"));
        let main_id = std::thread::current().id();
        pool.run(1, &|t| {
            assert_eq!(t, 0);
            assert_eq!(std::thread::current().id(), main_id, "inline fast path");
        });
        let after = pool.stats();
        assert_eq!(
            after.jobs_dispatched, before.jobs_dispatched,
            "inline paths never dispatch"
        );
    }
}
