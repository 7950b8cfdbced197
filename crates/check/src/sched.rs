//! The cooperative deterministic scheduler.
//!
//! A *schedule* executes the test closure with every virtual thread mapped
//! onto a real OS thread, but with a strict token discipline: exactly one
//! virtual thread owns the run token at any moment, everyone else is parked
//! on a condvar. The token changes hands only at **preemption points** —
//! every virtual atomic operation, spawn and join — and the choice of who
//! runs next comes exclusively from the seeded [`Strategy`]. OS timing
//! therefore cannot influence the execution: the same seed replays the
//! same interleaving, operation for operation, which is what makes a
//! printed `RINGO_CHECK_SEED` an exact reproducer.
//!
//! Failure handling: the first panic in any virtual thread (an assertion in
//! the test body, a deadlock, an index error inside a primitive) records the
//! schedule as failed and wakes everyone. Parked threads unwind with a
//! private [`Aborted`] payload; virtual atomics touched *during* that
//! unwinding (e.g. from `Drop` impls) fall back to the real atomic so
//! teardown never double-panics.

use crate::clock::VClock;
use crate::memory::Location;
use ringo_rng::Rng64;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Hard cap on virtual threads per schedule; exploration cost grows
/// factorially, so tests should stay far below this anyway.
pub const MAX_VTHREADS: usize = 32;

/// How the scheduler picks the next virtual thread at each preemption
/// point. All three draw any randomness from the schedule's seeded
/// SplitMix64 stream, so every strategy is deterministic per seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Rotate through runnable threads, switching at every preemption
    /// point, and always read the newest value of every atomic. The
    /// cheapest strategy; explores systematic alternation but no stale
    /// memory.
    RoundRobin,
    /// Uniformly random runnable thread at every point, and uniformly
    /// random *legal* value for every atomic load (this is what explores
    /// stale reads allowed by the memory model).
    Random,
    /// PCT (Burckhardt et al., ASPLOS 2010): random per-thread priorities,
    /// run the highest-priority runnable thread, and at `depth` random
    /// change points drop the running thread's priority below everyone.
    /// Finds bugs of preemption depth `d` with provable probability.
    Pct {
        /// Number of priority change points (the `d` in the paper).
        depth: usize,
    },
}

impl Strategy {
    /// Stable tag used in the replay-seed encoding.
    pub(crate) fn tag(self) -> u64 {
        match self {
            Strategy::RoundRobin => 0,
            Strategy::Random => 1,
            Strategy::Pct { .. } => 2,
        }
    }

    /// PCT depth, 0 for the other strategies.
    pub(crate) fn depth(self) -> u64 {
        match self {
            Strategy::Pct { depth } => depth as u64,
            _ => 0,
        }
    }

    /// Human name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::RoundRobin => "round-robin",
            Strategy::Random => "random",
            Strategy::Pct { .. } => "pct",
        }
    }
}

/// Panic payload used to tear down parked virtual threads once a schedule
/// has already failed; never reported as a failure itself.
pub(crate) struct Aborted;

#[derive(Clone, Copy, Debug)]
enum Status {
    Runnable,
    /// Waiting for the thread with this id to finish.
    Joining(usize),
    Finished,
}

struct ThreadState {
    status: Status,
    clock: VClock,
    /// PCT priority; higher runs first. Unused by other strategies.
    priority: u64,
}

/// Everything the scheduler knows about one schedule, behind one mutex.
pub(crate) struct ExecState {
    threads: Vec<ThreadState>,
    current: usize,
    /// Virtual threads not yet finished.
    live: usize,
    rng: Rng64,
    strategy: Strategy,
    /// Count of preemption points so far (PCT change points key off this).
    ops: u64,
    change_points: Vec<u64>,
    /// Decreasing priority counter handed out at PCT change points.
    next_low_priority: u64,
    locations: HashMap<usize, Location>,
    failed: Option<String>,
    /// Scheduling decisions (tid granted the token), for replay assertions.
    trace: Vec<u16>,
}

/// One schedule's shared state plus the condvar the token discipline runs
/// on.
pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
    /// OS handles of spawned virtual threads, reaped at end of schedule.
    pub(crate) os_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Identity of the current virtual thread, stored thread-locally. `None`
/// means the thread is not participating in any schedule, and every
/// virtual primitive degrades to its real `std::sync` counterpart
/// (the *passthrough* that keeps the `model` feature inert outside
/// checker runs).
#[derive(Clone)]
pub(crate) struct Ctx {
    pub exec: Arc<Execution>,
    pub tid: usize,
}

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The calling OS thread's virtual identity, if it has one.
///
/// Uses `try_with`: virtual primitives may run from other TLS
/// destructors (a thread-local cache releasing what it holds at thread
/// exit), and destructor order is unspecified, so this TLS may already
/// be gone by then. A thread whose scheduler TLS is destroyed cannot be
/// participating in a schedule, so `None` (passthrough to the real
/// primitive) is the correct answer — `with` would panic inside a TLS
/// destructor, which aborts the process.
pub(crate) fn current() -> Option<Ctx> {
    CURRENT.try_with(|c| c.borrow().clone()).ok().flatten()
}

pub(crate) fn set_current(ctx: Option<Ctx>) {
    // Same teardown tolerance as `current`: nothing to record on a
    // thread whose scheduler TLS is already destroyed.
    let _ = CURRENT.try_with(|c| *c.borrow_mut() = ctx);
}

type Guard<'a> = MutexGuard<'a, ExecState>;

impl ExecState {
    fn runnable(&self) -> impl Iterator<Item = usize> + '_ {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::Runnable))
            .map(|(i, _)| i)
    }

    /// Picks who owns the token next, per strategy. `None` when nobody is
    /// runnable.
    fn pick_next(&mut self) -> Option<usize> {
        let runnable: Vec<usize> = self.runnable().collect();
        if runnable.is_empty() {
            return None;
        }
        Some(match self.strategy {
            Strategy::RoundRobin => *runnable
                .iter()
                .find(|&&t| t > self.current)
                .unwrap_or(&runnable[0]),
            Strategy::Random => runnable[self.rng.below(runnable.len())],
            Strategy::Pct { .. } => *runnable
                .iter()
                .max_by_key(|&&t| self.threads[t].priority)
                .expect("nonempty"),
        })
    }

    fn fail(&mut self, msg: String) {
        if self.failed.is_none() {
            self.failed = Some(msg);
        }
    }
}

impl Execution {
    /// Fresh execution for one schedule. `seed` drives every scheduling
    /// and value decision; `max_ops_hint` bounds where PCT change points
    /// may land (adapted across schedules by the caller).
    pub fn new(seed: u64, strategy: Strategy, max_ops_hint: u64) -> Self {
        let mut rng = Rng64::new(seed);
        let mut change_points = Vec::new();
        if let Strategy::Pct { depth } = strategy {
            for _ in 0..depth {
                change_points.push(1 + rng.bounded_u64(max_ops_hint.max(1)));
            }
        }
        // Initial priorities live in [2^62, 2^64); change-point priorities
        // count down from 2^62, so a change point always demotes below
        // every initial priority.
        let main_priority = rng.u64() | (1 << 62);
        let mut clock = VClock::new();
        clock.set(0, 0);
        Self {
            state: Mutex::new(ExecState {
                threads: vec![ThreadState {
                    status: Status::Runnable,
                    clock,
                    priority: main_priority,
                }],
                current: 0,
                live: 1,
                rng,
                strategy,
                ops: 0,
                change_points,
                next_low_priority: 1 << 62,
                locations: HashMap::new(),
                failed: None,
                trace: Vec::new(),
            }),
            cv: Condvar::new(),
            os_handles: Mutex::new(Vec::new()),
        }
    }

    fn lock_state(&self) -> Guard<'_> {
        // A panicking virtual thread may poison the state mutex while
        // unwinding; the schedule is already failed then, so the state is
        // still consistent for teardown purposes.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Entry check for every preemption point. `Ok(false)` means "schedule
    /// failed and we are unwinding — skip the model, use passthrough".
    fn abort_check(st: &Guard<'_>) -> bool {
        if st.failed.is_some() {
            if std::thread::panicking() {
                return false;
            }
            std::panic::panic_any(Aborted);
        }
        true
    }

    /// The preemption point: counts the op, applies PCT change points,
    /// picks the next token owner, and parks the caller until the token
    /// comes back. Returns holding the lock with `current == tid`, or
    /// `None` if the schedule failed while we were unwinding.
    fn preempt(&self, tid: usize) -> Option<Guard<'_>> {
        let mut st = self.lock_state();
        if !Self::abort_check(&st) {
            return None;
        }
        st.ops += 1;
        if let Strategy::Pct { .. } = st.strategy {
            let ops = st.ops;
            if st.change_points.contains(&ops) {
                st.next_low_priority -= 1;
                let p = st.next_low_priority;
                st.threads[tid].priority = p;
            }
        }
        let next = st.pick_next().expect("caller itself is runnable");
        st.current = next;
        st.trace.push(next as u16);
        if next != tid {
            self.cv.notify_all();
            while st.current != tid && st.failed.is_none() {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if !Self::abort_check(&st) {
                return None;
            }
        }
        Some(st)
    }

    /// Gives the token away without expecting it back immediately (the
    /// caller just blocked or finished). Fails the schedule on deadlock.
    fn handoff(&self, st: &mut Guard<'_>) {
        match st.pick_next() {
            Some(next) => {
                st.current = next;
                st.trace.push(next as u16);
                self.cv.notify_all();
            }
            None => {
                if st.live > 0 {
                    let blocked: Vec<usize> = st
                        .threads
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| matches!(t.status, Status::Joining(_)))
                        .map(|(i, _)| i)
                        .collect();
                    st.fail(format!(
                        "deadlock: no runnable virtual thread (blocked: {blocked:?})"
                    ));
                }
                self.cv.notify_all();
            }
        }
    }

    /// Parks the caller until the scheduler grants it the token again
    /// (used after `handoff` from a blocking operation). Returns `None`
    /// when the schedule failed.
    fn wait_for_token<'a>(&self, mut st: Guard<'a>, tid: usize) -> Option<Guard<'a>> {
        while st.current != tid && st.failed.is_none() {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if !Self::abort_check(&st) {
            return None;
        }
        Some(st)
    }

    /// First wait of a freshly spawned virtual thread, before its body
    /// runs.
    pub(crate) fn wait_first_turn(&self, tid: usize) {
        let st = self.lock_state();
        // Aborted here unwinds into the spawn wrapper, which knows the
        // marker; passthrough is meaningless before the body started.
        let _ = self.wait_for_token(st, tid);
    }

    // ---- virtual thread lifecycle ------------------------------------

    /// Registers a new virtual thread (spawned by `parent`) and returns
    /// its id. The child's clock starts at the parent's (spawn is a
    /// happens-before edge).
    pub(crate) fn register_thread(&self, parent: usize) -> usize {
        let mut st = self.lock_state();
        let tid = st.threads.len();
        assert!(
            tid < MAX_VTHREADS,
            "ringo-check: schedule spawned more than {MAX_VTHREADS} virtual threads"
        );
        st.threads[parent].clock.tick(parent);
        let mut clock = st.threads[parent].clock.clone();
        clock.set(tid, 0);
        let priority = st.rng.u64() | (1 << 62);
        st.threads.push(ThreadState {
            status: Status::Runnable,
            clock,
            priority,
        });
        st.live += 1;
        tid
    }

    /// Marks `tid` finished, waking joiners. When the thread panicked the
    /// schedule is failed with its message (unless it was the teardown
    /// marker).
    pub(crate) fn finish_thread(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = self.lock_state();
        st.threads[tid].status = Status::Finished;
        st.threads[tid].clock.tick(tid);
        st.live -= 1;
        for t in st.threads.iter_mut() {
            if let Status::Joining(target) = t.status {
                if target == tid {
                    t.status = Status::Runnable;
                }
            }
        }
        if let Some(msg) = panic_msg {
            st.fail(msg);
            self.cv.notify_all();
            return;
        }
        if st.failed.is_some() || st.live == 0 {
            self.cv.notify_all();
            return;
        }
        self.handoff(&mut st);
    }

    /// Blocks `tid` until `target` finishes, then joins clocks (the
    /// join-synchronizes-with edge). Panics with `Aborted` if the schedule
    /// fails meanwhile.
    pub(crate) fn join_thread(&self, tid: usize, target: usize) {
        assert_ne!(tid, target, "virtual thread joining itself");
        let Some(mut st) = self.preempt(tid) else {
            return;
        };
        if !matches!(st.threads[target].status, Status::Finished) {
            st.threads[tid].status = Status::Joining(target);
            self.handoff(&mut st);
            let Some(got) = self.wait_for_token(st, tid) else {
                return;
            };
            st = got;
        }
        let target_clock = st.threads[target].clock.clone();
        st.threads[tid].clock.join(&target_clock);
    }

    /// Main-thread epilogue: the closure returned, so finish tid 0 and keep
    /// scheduling the remaining virtual threads until everyone is done (or
    /// the schedule fails).
    pub(crate) fn drain_after_main(&self) {
        let mut st = self.lock_state();
        st.threads[0].status = Status::Finished;
        st.threads[0].clock.tick(0);
        st.live -= 1;
        for t in st.threads.iter_mut() {
            if let Status::Joining(0) = t.status {
                t.status = Status::Runnable;
            }
        }
        if st.live > 0 && st.failed.is_none() {
            self.handoff(&mut st);
        }
        while st.live > 0 && st.failed.is_none() {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        self.cv.notify_all();
    }

    /// Records a failure observed on the main thread (the test closure
    /// panicked) and wakes every parked virtual thread for teardown.
    pub(crate) fn fail_from_main(&self, msg: String) {
        let mut st = self.lock_state();
        st.threads[0].status = Status::Finished;
        st.live -= 1;
        st.fail(msg);
        self.cv.notify_all();
        // Wait for the surviving virtual threads to unwind so their OS
        // handles can be reaped deterministically.
        let mut st = st;
        while st.live > 0 {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Outcome of the schedule: `Err(message)` when failed, else the
    /// number of preemption points, plus the scheduling trace.
    pub(crate) fn report(&self) -> (Result<u64, String>, Vec<u16>) {
        let st = self.lock_state();
        let trace = st.trace.clone();
        match &st.failed {
            Some(msg) => (Err(msg.clone()), trace),
            None => (Ok(st.ops), trace),
        }
    }

    // ---- virtual atomic operations -----------------------------------

    /// Atomic load at `addr`. `init` seeds the location's modification
    /// order on first touch. `None` = passthrough (schedule tearing down).
    pub(crate) fn atomic_load(
        &self,
        tid: usize,
        addr: usize,
        init: u64,
        ord: std::sync::atomic::Ordering,
    ) -> Option<u64> {
        let mut st = self.preempt(tid)?;
        let state = &mut *st;
        let loc = state
            .locations
            .entry(addr)
            .or_insert_with(|| Location::new(init));
        state.threads[tid].clock.tick(tid);
        let clock = &mut state.threads[tid].clock;
        let lo = loc.read_floor(tid, clock);
        let idx = {
            // Split borrow: the index choice needs rng+strategy, not the
            // location.
            let len = loc.len();
            match state.strategy {
                Strategy::RoundRobin => len - 1,
                _ => {
                    if matches!(ord, std::sync::atomic::Ordering::SeqCst) {
                        len - 1
                    } else if lo + 1 == len {
                        lo
                    } else {
                        lo + state.rng.below(len - lo)
                    }
                }
            }
        };
        Some(loc.read_at(idx, tid, clock, ord))
    }

    /// Atomic store at `addr`.
    pub(crate) fn atomic_store(
        &self,
        tid: usize,
        addr: usize,
        init: u64,
        value: u64,
        ord: std::sync::atomic::Ordering,
    ) -> Option<()> {
        let mut st = self.preempt(tid)?;
        let state = &mut *st;
        let loc = state
            .locations
            .entry(addr)
            .or_insert_with(|| Location::new(init));
        state.threads[tid].clock.tick(tid);
        loc.store(tid, &state.threads[tid].clock, value, ord);
        Some(())
    }

    /// Atomic read-modify-write at `addr`; returns the old value.
    pub(crate) fn atomic_rmw(
        &self,
        tid: usize,
        addr: usize,
        init: u64,
        ord: std::sync::atomic::Ordering,
        f: &mut dyn FnMut(u64) -> u64,
    ) -> Option<u64> {
        let mut st = self.preempt(tid)?;
        let state = &mut *st;
        let loc = state
            .locations
            .entry(addr)
            .or_insert_with(|| Location::new(init));
        state.threads[tid].clock.tick(tid);
        let new = f(loc.latest());
        Some(loc.rmw(tid, &mut state.threads[tid].clock, new, ord))
    }

    /// Atomic compare-exchange at `addr`. RMW semantics on success; a
    /// latest-value load with `failure` ordering on mismatch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn atomic_cas(
        &self,
        tid: usize,
        addr: usize,
        init: u64,
        expected: u64,
        new: u64,
        success: std::sync::atomic::Ordering,
        failure: std::sync::atomic::Ordering,
    ) -> Option<Result<u64, u64>> {
        let mut st = self.preempt(tid)?;
        let state = &mut *st;
        let loc = state
            .locations
            .entry(addr)
            .or_insert_with(|| Location::new(init));
        state.threads[tid].clock.tick(tid);
        let latest = loc.latest();
        if latest == expected {
            let old = loc.rmw(tid, &mut state.threads[tid].clock, new, success);
            Some(Ok(old))
        } else {
            let idx = loc.len() - 1;
            let got = loc.read_at(idx, tid, &mut state.threads[tid].clock, failure);
            Some(Err(got))
        }
    }

    /// Pure preemption point with no memory effect (spawn).
    pub(crate) fn yield_point(&self, tid: usize) {
        let _ = self.preempt(tid);
    }
}

/// Installs `ctx` as the calling OS thread's virtual identity for the
/// duration of `f`, restoring the previous identity afterwards (even on
/// unwind).
pub(crate) fn with_ctx<R>(ctx: Ctx, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Ctx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_current(self.0.take());
        }
    }
    let prev = current();
    set_current(Some(ctx));
    let _restore = Restore(prev);
    f()
}
