//! Replay-regression corpus: known-bad interleavings pinned by their
//! encoded seeds, re-checked forever.
//!
//! Each constant below is a `RINGO_CHECK_SEED` value discovered by
//! exploration during development (the seeds are deterministic: the base
//! seed is derived from the exploration name, so re-discovery yields the
//! same values). The tests replay each seed against the buggy body and
//! assert it still fails with the same class of violation — which guards
//! two things at once:
//!
//! 1. the bug classes stay visible to the checker (no silent loss of
//!    detection power in the scheduler or memory model), and
//! 2. seed replay stays an exact reproducer (encoding, RNG streams, and
//!    scheduling decisions are part of the replay contract; changing any
//!    of them must fail here, loudly, so the seed format is versioned
//!    deliberately rather than drifting).
//!
//! If a deliberate scheduler change breaks these, re-discover the seeds
//! with the exploration names in each test and update the constants in the
//! same commit, noting the replay-format break in CHANGES.md.

use ringo_check::sync::VAtomicU64;
use ringo_check::{explore, replay, vthread, Options, Strategy};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The visited bitset's claim with `fetch_or` torn into load-then-store;
/// both claimers win one bit (found by PCT, depth 3).
const TORN_FETCH_OR_SEED: u64 = 0xd1941c10d4b2ba1a;

/// Relaxed-where-Release message-passing publish; only the weak-memory
/// model's stale reads expose it.
const RELAXED_PUBLISH_SEED: u64 = 0xcbe36a01fcfc0601;

fn torn_fetch_or_body() {
    let word = Arc::new(VAtomicU64::new(0));
    let claims: Vec<_> = (0..2)
        .map(|_| {
            let word = word.clone();
            vthread::spawn(move || {
                let prev = word.load(Ordering::Relaxed);
                word.store(prev | 1 << 7, Ordering::Relaxed);
                prev & 1 << 7 == 0
            })
        })
        .collect();
    let winners = claims
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&won| won)
        .count();
    assert_eq!(winners, 1, "two bit winners");
}

fn relaxed_publish_body() {
    let data = Arc::new(VAtomicU64::new(0));
    let flag = Arc::new(VAtomicU64::new(0));
    let (d, fl) = (data.clone(), flag.clone());
    let writer = vthread::spawn(move || {
        d.store(42, Ordering::Relaxed);
        fl.store(1, Ordering::Relaxed);
    });
    if flag.load(Ordering::Acquire) == 1 {
        assert_eq!(data.load(Ordering::Relaxed), 42, "stale data");
    }
    writer.join().unwrap();
}

/// Replays `seed` against `body` twice, asserting it fails with `expect`
/// in the message and that both replays follow the identical schedule.
fn assert_pinned_failure(seed: u64, body: fn(), expect: &str) {
    let r1 = replay(seed, body);
    let r2 = replay(seed, body);
    let m1 = r1.outcome.expect_err("pinned seed must still fail");
    let m2 = r2.outcome.expect_err("pinned seed must still fail");
    assert!(m1.contains(expect), "unexpected failure: {m1}");
    assert_eq!(m1, m2, "replay must be deterministic");
    assert_eq!(r1.trace, r2.trace, "replay must follow the same schedule");
}

#[test]
fn pinned_torn_fetch_or_still_fails() {
    assert_pinned_failure(TORN_FETCH_OR_SEED, torn_fetch_or_body, "two bit winners");
}

#[test]
fn pinned_relaxed_publish_still_fails() {
    assert_pinned_failure(RELAXED_PUBLISH_SEED, relaxed_publish_body, "stale data");
}

/// The pinned seeds must also stay *re-discoverable*: exploration from the
/// stable per-name base seed finds the identical seed again. This couples
/// the corpus to the exploration RNG streams, so a change to either is
/// caught in the same place the constants are maintained.
#[test]
fn exploration_rediscovers_the_pinned_seeds() {
    let mut o = Options::new("replay_torn_fetch_or");
    o.strategies = vec![Strategy::Pct { depth: 3 }];
    let f = explore(&o, torn_fetch_or_body).expect_err("must fail");
    assert_eq!(f.seed, TORN_FETCH_OR_SEED, "re-discovery drifted");

    let mut o = Options::new("replay_relaxed_publish");
    o.strategies = vec![Strategy::Random];
    let f = explore(&o, relaxed_publish_body).expect_err("must fail");
    assert_eq!(f.seed, RELAXED_PUBLISH_SEED, "re-discovery drifted");
}

/// A clean body must replay clean under any pinned-format seed: replay is
/// not allowed to manufacture failures.
#[test]
fn clean_body_replays_clean() {
    for seed in [TORN_FETCH_OR_SEED, RELAXED_PUBLISH_SEED] {
        let r = replay(seed, || {
            let a = Arc::new(VAtomicU64::new(0));
            let a2 = a.clone();
            let h = vthread::spawn(move || {
                a2.fetch_add(1, Ordering::AcqRel);
            });
            h.join().unwrap();
            assert_eq!(a.load(Ordering::Acquire), 1);
        });
        assert!(r.outcome.is_ok(), "{:?}", r.outcome);
    }
}
