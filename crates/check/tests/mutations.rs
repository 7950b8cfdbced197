//! Mutation coverage: deliberately weakened variants of the protocols the
//! real primitives use MUST be caught by the checker within a bounded
//! schedule budget, and every kill must replay deterministically from its
//! printed seed. This is the evidence that the model tests passing means
//! something — the checker can see the bugs it claims to rule out.
//!
//! Each mutation reproduces a live protocol with facade atomics and breaks
//! it the way a plausible bad patch would; each protocol has a model test
//! that drives the real code:
//!
//! | protocol | model test | mutation here |
//! |---|---|---|
//! | pool stats counters, histogram aggregates | `model_primitives.rs`: `pool_stats_counters_sum_exactly`, `histogram_aggregates_are_exact` | a `fetch_add` torn into load + store loses an update |
//! | visited bitset claim | `model_bitset.rs` | the `fetch_or` torn into load + store: two winners |
//! | registry slot claim | `model_primitives.rs`: `registry_never_claims_one_name_twice` | the CAS torn into load + store: two winners |
//! | flight-recorder ring | `ringo-trace` `events.rs`: `model::drained_events_are_whole_and_the_dropped_count_is_exact` | the even guard store `Relaxed`: a torn event is accepted |
//! | release/acquire publication (ring head, registry names) | the ring and registry model tests | a `Relaxed` flag store: the flag arrives without its data |
//!
//! The `Relaxed` mutations need the weak-memory model (stale reads under
//! the randomized strategies): under any interleaving the data stores are
//! program-order-before the store that publishes them, so sequential
//! consistency alone always delivers the data.

use ringo_check::sync::{VAtomicI64, VAtomicU64};
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

/// One round of the flight recorder's seqlock on a one-slot ring: the
/// writer publishes positions 0 and 1 into the slot (odd guard, `Release`
/// payload, even guard with `publish`) while the reader copies the slot
/// the way `ThreadBuffer::read_slot` does. The reader validates by the
/// guard alone; the real drain also bounds its positions by the
/// `Release`-published head, which would hide this mutation, so the slot
/// protocol is checked on its own.
fn ring_round(publish: Ordering) {
    let guard = Arc::new(VAtomicU64::new(0));
    let words = Arc::new([VAtomicU64::new(0), VAtomicU64::new(0)]);
    let (g, w) = (guard.clone(), words.clone());
    let writer = vthread::spawn(move || {
        for pos in 0..2u64 {
            g.store(2 * pos + 1, Ordering::Relaxed);
            w[0].store(pos + 10, Ordering::Release);
            w[1].store(pos + 20, Ordering::Release);
            g.store(2 * pos + 2, publish);
        }
    });
    let g1 = guard.load(Ordering::Acquire);
    if g1 != 0 && g1.is_multiple_of(2) {
        let copy = (
            words[0].load(Ordering::Acquire),
            words[1].load(Ordering::Acquire),
        );
        if guard.load(Ordering::Relaxed) == g1 {
            let pos = g1 / 2 - 1;
            assert_eq!(copy, (pos + 10, pos + 20), "torn event accepted");
        }
    }
    writer.join().unwrap();
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

/// Two claimers of one registry slot; `torn` replaces the claim's
/// `compare_exchange(EMPTY, key, AcqRel, Acquire)` with a load and a store.
fn slot_claims(torn: bool) {
    const EMPTY: i64 = i64::MIN;
    let slot = Arc::new(VAtomicI64::new(EMPTY));
    let claims: Vec<_> = (0..2)
        .map(|w| {
            let slot = slot.clone();
            vthread::spawn(move || {
                let key = 100 + w as i64;
                if torn {
                    let empty = slot.load(Ordering::Acquire) == EMPTY;
                    if empty {
                        slot.store(key, Ordering::Release);
                    }
                    empty
                } else {
                    slot.compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                }
            })
        })
        .collect();
    let winners = claims
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&won| won)
        .count();
    assert!(winners <= 1, "two claimers won the same slot");
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

/// The ring's even guard store downgraded to `Relaxed`: a reader that
/// acquires the published tag learns nothing, so it may copy words of an
/// older write (or the never-written zeros) and accept them.
#[test]
fn relaxed_ring_guard_publish_is_caught() {
    kill(
        "mut_ring_guard",
        Strategy::Random,
        || ring_round(Ordering::Relaxed),
        || ring_round(Ordering::Release),
    );
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

/// The registry's slot claim with its CAS torn into a load plus a store:
/// both claimers observe EMPTY and both claim. PCT excels here: the bug
/// needs one preemption inside the tiny load/store window.
#[test]
fn torn_cas_slot_claim_is_caught() {
    kill(
        "mut_torn_cas",
        Strategy::Pct { depth: 3 },
        || slot_claims(true),
        || slot_claims(false),
    );
}
