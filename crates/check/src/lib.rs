//! `ringo-check`: deterministic cooperative-scheduling concurrency checker
//! for Ringo's lock-free core.
//!
//! The crate under test (`ringo-concurrent`) accesses its atomics through
//! a `crate::sync` facade. In a normal build the facade is
//! a set of type aliases onto `std::sync::atomic` — byte-for-byte the same
//! code. Under `--features model` the facade re-exports this crate's
//! virtual primitives ([`sync`], [`vthread`]), and a test wraps the code
//! under test in [`check`]:
//!
//! ```ignore
//! ringo_check::check("bitset_same_bit_claim", || {
//!     let b = Arc::new(ConcurrentBitset::new(64));
//!     let hs: Vec<_> = (0..2)
//!         .map(|_| { let b = b.clone(); ringo_check::vthread::spawn(move || b.set(7)) })
//!         .collect();
//!     let wins = hs.into_iter().map(|h| h.join().unwrap()).filter(|&won| won).count();
//!     assert_eq!(wins, 1, "exactly one claimer wins the bit");
//! });
//! ```
//!
//! [`check`] runs the closure under thousands of *schedules*: each one
//! executes the virtual threads one at a time, switching only at
//! synchronization operations, with every scheduling decision (and every
//! choice of which store a relaxed load observes — see `memory`) drawn
//! from a seeded SplitMix64 stream. A failing schedule prints a
//! `RINGO_CHECK_SEED=0x…` value; exporting it replays exactly that
//! interleaving.
//!
//! Environment knobs (read by [`check`]):
//!
//! * `RINGO_CHECK_SEED` — hex or decimal encoded seed; replay exactly one
//!   schedule instead of exploring.
//! * `RINGO_CHECK_STRATEGY` — `round-robin` | `random` | `pct`; restrict
//!   exploration to one strategy.
//! * `RINGO_CHECK_SCHEDULES` — schedules per strategy (default 1000).

mod clock;
mod memory;
mod sched;
pub mod sync;
pub mod vthread;

use ringo_rng::Rng64;
use sched::Execution;
pub use sched::Strategy;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Fixed range PCT change points are sampled from (`1..=PCT_OP_RANGE`).
/// A fixed constant rather than an adaptive estimate so that a printed
/// seed alone — with no side-channel state — replays the exact schedule.
/// Points beyond a schedule's actual length simply never fire.
pub const PCT_OP_RANGE: u64 = 512;

/// Default schedules per strategy when `RINGO_CHECK_SCHEDULES` is unset.
pub const DEFAULT_SCHEDULES: usize = 1000;

/// Default PCT depth (number of priority change points).
pub const DEFAULT_PCT_DEPTH: usize = 3;

// ---- seed encoding ----------------------------------------------------
//
// A replay seed is one u64: [raw:55][depth:6][tag:3]. `raw` is the
// schedule's RNG seed, `depth` the PCT change-point count, `tag` the
// strategy. One value reproduces everything.

const TAG_BITS: u32 = 3;
const DEPTH_BITS: u32 = 6;
const RAW_MASK: u64 = (1 << (64 - TAG_BITS - DEPTH_BITS)) - 1;

/// Packs a schedule's raw RNG seed and strategy into one replayable value.
pub fn encode_seed(raw: u64, strategy: Strategy) -> u64 {
    debug_assert!(raw <= RAW_MASK);
    (raw << (TAG_BITS + DEPTH_BITS))
        | ((strategy.depth() & ((1 << DEPTH_BITS) - 1)) << TAG_BITS)
        | strategy.tag()
}

/// Inverse of [`encode_seed`].
pub fn decode_seed(encoded: u64) -> (u64, Strategy) {
    let raw = encoded >> (TAG_BITS + DEPTH_BITS);
    let depth = ((encoded >> TAG_BITS) & ((1 << DEPTH_BITS) - 1)) as usize;
    let strategy = match encoded & ((1 << TAG_BITS) - 1) {
        0 => Strategy::RoundRobin,
        1 => Strategy::Random,
        2 => Strategy::Pct { depth },
        t => panic!("ringo-check: invalid strategy tag {t} in seed {encoded:#x}"),
    };
    (raw, strategy)
}

// ---- running schedules -------------------------------------------------

/// Outcome of one schedule: preemption-point count on success, failure
/// message otherwise; plus the scheduling trace (sequence of tids granted
/// the token) for replay-equality assertions.
pub struct ScheduleResult {
    pub outcome: Result<u64, String>,
    pub trace: Vec<u16>,
}

/// Runs `f` once under the scheduler with the given raw seed and strategy.
pub fn run_schedule<F: FnOnce()>(raw_seed: u64, strategy: Strategy, f: F) -> ScheduleResult {
    let exec = Arc::new(Execution::new(raw_seed, strategy, PCT_OP_RANGE));
    let main_ctx = sched::Ctx {
        exec: exec.clone(),
        tid: 0,
    };
    let body = sched::with_ctx(main_ctx, || catch_unwind(AssertUnwindSafe(f)));
    match body {
        Ok(()) => exec.drain_after_main(),
        Err(payload) => {
            let msg = if payload.is::<sched::Aborted>() {
                // A child already recorded the real failure.
                "aborted".to_string()
            } else {
                format!("main thread: {}", vthread::panic_message(&*payload))
            };
            exec.fail_from_main(msg);
        }
    }
    // All virtual threads have finished (live == 0); reap their OS threads
    // so schedules never leak.
    for h in exec
        .os_handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
    {
        let _ = h.join();
    }
    let (outcome, trace) = exec.report();
    ScheduleResult { outcome, trace }
}

/// Replays the single schedule identified by an encoded seed.
pub fn replay<F: FnOnce()>(encoded_seed: u64, f: F) -> ScheduleResult {
    let (raw, strategy) = decode_seed(encoded_seed);
    run_schedule(raw, strategy, f)
}

// ---- exploration -------------------------------------------------------

/// Exploration configuration; built from the environment by [`check`].
#[derive(Clone, Debug)]
pub struct Options {
    pub strategies: Vec<Strategy>,
    pub schedules_per_strategy: usize,
    /// Master seed the per-schedule raw seeds are drawn from.
    pub base_seed: u64,
}

impl Options {
    /// Deterministic defaults keyed on the test name: all three
    /// strategies, [`DEFAULT_SCHEDULES`] each.
    pub fn new(name: &str) -> Self {
        Self {
            strategies: vec![
                Strategy::RoundRobin,
                Strategy::Random,
                Strategy::Pct {
                    depth: DEFAULT_PCT_DEPTH,
                },
            ],
            schedules_per_strategy: DEFAULT_SCHEDULES,
            base_seed: seed_from_name(name),
        }
    }
}

/// Stable 64-bit seed from a test name (FNV-1a), so exploration is
/// deterministic run to run without any environment setup.
fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A failed schedule found during exploration.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Encoded replay seed; `RINGO_CHECK_SEED={seed:#x}` reproduces it.
    pub seed: u64,
    pub strategy: Strategy,
    pub schedule_index: usize,
    pub message: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule {} under {} failed: {}\n  replay with: RINGO_CHECK_SEED={:#x}",
            self.schedule_index,
            self.strategy.name(),
            self.message,
            self.seed
        )
    }
}

/// Aggregate statistics of a fully passing exploration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    pub schedules: usize,
    /// Largest preemption-point count observed in any schedule.
    pub max_ops: u64,
}

/// Explores schedules per `opts`, stopping at the first failure. `f` must
/// be self-contained: it is invoked once per schedule and should build its
/// data structures fresh each time.
pub fn explore<F: Fn()>(opts: &Options, f: F) -> Result<Stats, Failure> {
    let mut stats = Stats::default();
    for strategy in &opts.strategies {
        // Distinct raw-seed stream per strategy, derived from the base.
        let mut seeder = Rng64::new(
            opts.base_seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(strategy.tag() + 1)),
        );
        for i in 0..opts.schedules_per_strategy {
            let raw = seeder.u64() & RAW_MASK;
            let result = run_schedule(raw, *strategy, &f);
            match result.outcome {
                Ok(ops) => {
                    stats.schedules += 1;
                    stats.max_ops = stats.max_ops.max(ops);
                }
                Err(message) => {
                    return Err(Failure {
                        seed: encode_seed(raw, *strategy),
                        strategy: *strategy,
                        schedule_index: i,
                        message,
                    });
                }
            }
        }
    }
    Ok(stats)
}

// ---- the test-facing entry point ---------------------------------------

fn env_u64(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    match parsed {
        Ok(n) => Some(n),
        Err(_) => panic!("ringo-check: could not parse {name}={v:?} as a u64"),
    }
}

fn env_strategy() -> Option<Strategy> {
    let v = std::env::var("RINGO_CHECK_STRATEGY").ok()?;
    Some(match v.trim().to_ascii_lowercase().as_str() {
        "round-robin" | "roundrobin" | "rr" => Strategy::RoundRobin,
        "random" => Strategy::Random,
        "pct" => Strategy::Pct {
            depth: env_u64("RINGO_CHECK_PCT_DEPTH").map_or(DEFAULT_PCT_DEPTH, |d| d as usize),
        },
        other => panic!(
            "ringo-check: unknown RINGO_CHECK_STRATEGY={other:?} \
             (expected round-robin | random | pct)"
        ),
    })
}

/// Checks `f` under many schedules, panicking with a replayable seed on
/// the first failing one. This is the function model tests call; it obeys
/// the `RINGO_CHECK_*` environment (see crate docs). Returns exploration
/// stats so tests can assert coverage.
pub fn check<F: Fn()>(name: &str, f: F) -> Stats {
    if let Some(encoded) = env_u64("RINGO_CHECK_SEED") {
        let result = replay(encoded, &f);
        match result.outcome {
            Ok(ops) => {
                eprintln!("ringo-check[{name}]: seed {encoded:#x} replayed clean ({ops} ops)");
                return Stats {
                    schedules: 1,
                    max_ops: ops,
                };
            }
            Err(message) => {
                let (_, strategy) = decode_seed(encoded);
                panic!(
                    "ringo-check[{name}]: replay of RINGO_CHECK_SEED={encoded:#x} \
                     ({}) failed: {message}",
                    strategy.name()
                );
            }
        }
    }

    let mut opts = Options::new(name);
    if let Some(s) = env_strategy() {
        opts.strategies = vec![s];
    }
    if let Some(n) = env_u64("RINGO_CHECK_SCHEDULES") {
        opts.schedules_per_strategy = n as usize;
    }
    match explore(&opts, f) {
        Ok(stats) => stats,
        Err(failure) => panic!("ringo-check[{name}]: {failure}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_roundtrip() {
        for (raw, strategy) in [
            (0u64, Strategy::RoundRobin),
            (42, Strategy::Random),
            (RAW_MASK, Strategy::Pct { depth: 63 }),
            (0xdead_beef, Strategy::Pct { depth: 3 }),
        ] {
            let enc = encode_seed(raw, strategy);
            let (r, s) = decode_seed(enc);
            assert_eq!(r, raw);
            assert_eq!(s, strategy);
        }
    }

    #[test]
    fn single_threaded_schedule_runs_clean() {
        let r = run_schedule(1, Strategy::RoundRobin, || {
            let a = sync::VAtomicU64::new(0);
            a.store(5, std::sync::atomic::Ordering::Release);
            assert_eq!(a.load(std::sync::atomic::Ordering::Acquire), 5);
        });
        assert!(r.outcome.is_ok(), "{:?}", r.outcome);
    }

    #[test]
    fn spawned_vthreads_interleave_and_join() {
        for strategy in [
            Strategy::RoundRobin,
            Strategy::Random,
            Strategy::Pct { depth: 2 },
        ] {
            let r = run_schedule(7, strategy, || {
                let a = Arc::new(sync::VAtomicU64::new(0));
                let hs: Vec<_> = (0..3)
                    .map(|_| {
                        let a = a.clone();
                        vthread::spawn(move || {
                            a.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                        })
                    })
                    .collect();
                for h in hs {
                    h.join().unwrap();
                }
                assert_eq!(a.load(std::sync::atomic::Ordering::Acquire), 3);
            });
            assert!(r.outcome.is_ok(), "{:?} under {:?}", r.outcome, strategy);
        }
    }

    #[test]
    fn assertion_failures_are_reported_with_replayable_seed() {
        let opts = Options {
            strategies: vec![Strategy::Random],
            schedules_per_strategy: 50,
            base_seed: 99,
        };
        let body = || {
            let a = Arc::new(sync::VAtomicU64::new(0));
            let b = Arc::new(sync::VAtomicU64::new(0));
            let (a2, b2) = (a.clone(), b.clone());
            let h = vthread::spawn(move || {
                a2.store(1, std::sync::atomic::Ordering::Relaxed);
                b2.store(1, std::sync::atomic::Ordering::Relaxed);
            });
            // With Relaxed stores nothing orders a before b for the
            // reader: the weak-memory model lets `a` read stale 0 after
            // `b` read 1, so the assertion must trip under Random.
            let saw_b = b.load(std::sync::atomic::Ordering::Relaxed);
            let saw_a = a.load(std::sync::atomic::Ordering::Relaxed);
            h.join().unwrap();
            assert!(!(saw_b == 1 && saw_a == 0), "b before a");
        };
        let failure = explore(&opts, body).expect_err("race must be found within 50 schedules");
        // The printed seed replays the same failing interleaving.
        let r1 = replay(failure.seed, body);
        let r2 = replay(failure.seed, body);
        assert_eq!(r1.outcome.clone().unwrap_err(), failure.message);
        assert_eq!(r1.trace, r2.trace, "replay must be deterministic");
    }
}
