//! Mutation coverage: deliberately weakened variants of the protocols the
//! real primitives use MUST be caught by the checker within a bounded
//! schedule budget, and every kill must replay deterministically from its
//! printed seed. This is the evidence that the model tests passing means
//! something — the checker can see the bugs it claims to rule out.
//!
//! Each mutation reproduces a protocol with facade atomics and breaks it
//! the way a plausible bad patch would; each live protocol has a model
//! test that drives the real code:
//!
//! | protocol | model test | mutation here |
//! |---|---|---|
//! | pool stats counters (and the registry's counters and histograms, which add the same way) | `model_primitives.rs`: `pool_stats_counters_sum_exactly` | a `fetch_add` torn into load + store loses an update |
//! | visited bitset claim | `model_bitset.rs` | the `fetch_or` torn into load + store: two winners |
//! | release/acquire publication | none: no live protocol publishes this way | a `Relaxed` flag store: the flag arrives without its data |
//!
//! The last row keeps the weak-memory model itself under test. The
//! `Relaxed` mutation needs the weak-memory model (stale reads under
//! the randomized strategies): under any interleaving the data store is
//! program-order-before the store that publishes it, so sequential
//! consistency alone always delivers the data.

use ringo_check::sync::VAtomicU64;
use ringo_check::{explore, replay, vthread, Failure, Options, Strategy};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Budget matching the acceptance bar: each mutation must die within 1000
/// schedules of a single strategy.
const BUDGET: usize = 1000;

fn opts(name: &str, strategies: Vec<Strategy>) -> Options {
    let mut o = Options::new(name);
    o.strategies = strategies;
    o.schedules_per_strategy = BUDGET;
    o
}

/// Asserts the failure replays deterministically: same outcome message and
/// identical scheduling trace on two replays of the printed seed.
fn assert_deterministic_replay<F: Fn()>(failure: &Failure, body: F) {
    let r1 = replay(failure.seed, &body);
    let r2 = replay(failure.seed, &body);
    let m1 = r1.outcome.expect_err("replayed seed must still fail");
    let m2 = r2.outcome.expect_err("replayed seed must still fail");
    assert_eq!(m1, failure.message, "replay reproduces the same failure");
    assert_eq!(m1, m2);
    assert_eq!(r1.trace, r2.trace, "replay must follow the same schedule");
}

/// Kills `mutant` within the budget under `strategy`, checks the kill
/// replays deterministically, and passes the correct `control` through
/// the same budget — the checker kills the mutation, not the pattern.
fn kill<M: Fn(), C: Fn()>(name: &str, strategy: Strategy, mutant: M, control: C) {
    let failure = explore(&opts(name, vec![strategy]), &mutant)
        .expect_err("mutation must be killed within the budget");
    assert_deterministic_replay(&failure, &mutant);
    explore(&opts(&format!("{name}_control"), vec![strategy]), control)
        .expect("the correct protocol must pass");
}

/// Two claimers of one bit of the visited bitset; `torn` replaces
/// `ConcurrentBitset::set`'s `fetch_or` with a load and a store.
fn bitset_claims(torn: bool) {
    let word = Arc::new(VAtomicU64::new(0));
    let claims: Vec<_> = (0..2)
        .map(|_| {
            let word = word.clone();
            vthread::spawn(move || {
                let mask = 1u64 << 7;
                let prev = if torn {
                    let prev = word.load(Ordering::Relaxed);
                    word.store(prev | mask, Ordering::Relaxed);
                    prev
                } else {
                    word.fetch_or(mask, Ordering::Relaxed)
                };
                prev & mask == 0
            })
        })
        .collect();
    let winners = claims
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&won| won)
        .count();
    assert_eq!(winners, 1, "two claimers won one bit");
}

/// Two executors adding into one statistics counter (the pool's
/// `chunks_executed` / `busy_nanos`, a histogram's `count` / `sum`);
/// `torn` replaces the `fetch_add` with a load and a store.
fn counter_adds(torn: bool) {
    let total = Arc::new(VAtomicU64::new(0));
    let adders: Vec<_> = (1..=2u64)
        .map(|d| {
            let total = total.clone();
            vthread::spawn(move || {
                if torn {
                    let v = total.load(Ordering::Relaxed);
                    total.store(v + d, Ordering::Relaxed);
                } else {
                    total.fetch_add(d, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for a in adders {
        a.join().unwrap();
    }
    assert_eq!(total.load(Ordering::Relaxed), 3, "lost update");
}

/// Message-passing publish; `publish` is the flag store's ordering.
fn flag_publish(publish: Ordering) {
    let data = Arc::new(VAtomicU64::new(0));
    let flag = Arc::new(VAtomicU64::new(0));
    let (d, f) = (data.clone(), flag.clone());
    let writer = vthread::spawn(move || {
        d.store(42, Ordering::Relaxed);
        f.store(1, publish);
    });
    if flag.load(Ordering::Acquire) == 1 {
        assert_eq!(
            data.load(Ordering::Relaxed),
            42,
            "flag observed without the data it was supposed to publish"
        );
    }
    writer.join().unwrap();
}

/// The bitset claim with its `fetch_or` torn into load-then-store: both
/// claimers read the bit clear and both win.
#[test]
fn torn_bitset_claim_is_caught() {
    kill(
        "mut_torn_fetch_or",
        Strategy::Pct { depth: 3 },
        || bitset_claims(true),
        || bitset_claims(false),
    );
}

/// A statistics counter's `fetch_add` torn into load + store: one add
/// overwrites the other.
#[test]
fn torn_counter_add_is_caught() {
    kill(
        "mut_torn_fetch_add",
        Strategy::Pct { depth: 3 },
        || counter_adds(true),
        || counter_adds(false),
    );
}

/// Message-passing publish with `Relaxed` instead of `Release` on the
/// flag store.
#[test]
fn relaxed_where_release_required_is_caught() {
    kill(
        "mut_relaxed_publish",
        Strategy::Random,
        || flag_publish(Ordering::Relaxed),
        || flag_publish(Ordering::Release),
    );
}
