//! Schedule exploration over the epoch-reclamation layer: real
//! `EpochDomain` / `Versioned` pins and publishes under the virtualized
//! scheduler, graph compaction published as a version while slab readers
//! race it, and deliberately weakened variants of the pin protocol that
//! the checker must kill.
//!
//! The protocol under test is `ringo_concurrent::epoch`: readers pin by
//! storing the observed epoch into a slot and **re-validating** the
//! global epoch (both `SeqCst` — Dekker's pattern against the writer's
//! advance-then-scan), the single writer swings the current pointer and
//! advances the epoch, and reclamation frees a retired version only once
//! `min_pinned` reaches its retire epoch. The mutation tests below break
//! exactly the two load-bearing rungs (the re-validation loop, the
//! `SeqCst` scan) and assert the checker finds a failing schedule within
//! the 1000-schedule budget — plus a pinned-seed replay so the found
//! interleaving stays reproducible forever.

use ringo_check::sync::VAtomicU64;
use ringo_check::{explore, replay, vthread, Failure, Options, Strategy};
use ringo_concurrent::epoch::{EpochDomain, Versioned};
use ringo_graph::DirectedGraph;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Budget matching the acceptance bar: each mutation must die within
/// 1000 schedules of a single strategy.
const BUDGET: usize = 1000;

/// Slot value meaning "no epoch pinned" (mirrors `epoch::UNPINNED`).
const UNPINNED: u64 = u64::MAX;

fn opts(name: &str, strategies: Vec<Strategy>) -> Options {
    let mut o = Options::new(name);
    o.strategies = strategies;
    o.schedules_per_strategy = BUDGET;
    o
}

/// Asserts the failure replays deterministically: same outcome message
/// and identical scheduling trace on two replays of the printed seed.
fn assert_deterministic_replay<F: Fn()>(failure: &Failure, body: F) {
    let r1 = replay(failure.seed, &body);
    let r2 = replay(failure.seed, &body);
    let m1 = r1.outcome.expect_err("replayed seed must still fail");
    let m2 = r2.outcome.expect_err("replayed seed must still fail");
    assert_eq!(m1, failure.message, "replay reproduces the same failure");
    assert_eq!(m1, m2);
    assert_eq!(r1.trace, r2.trace, "replay must follow the same schedule");
}

// ---- the real protocol under the scheduler ----------------------------

/// Two pinned readers racing one publish+gc writer on the real epoch
/// primitive. Every schedule must deliver untorn versions that never go
/// backwards, and gc must reclaim everything once the pins are gone.
#[test]
fn epoch_pin_publish_gc_never_tears_or_leaks() {
    ringo_check::check("epoch_pin_publish_gc", || {
        let domain = Arc::new(EpochDomain::with_slots(4));
        let cell = Arc::new(Versioned::new(Arc::clone(&domain), vec![1u64; 3]));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (d, c) = (Arc::clone(&domain), Arc::clone(&cell));
                vthread::spawn(move || {
                    let g = d.pin();
                    let v = c.load(&g);
                    let first = v[0];
                    assert!(v.iter().all(|&x| x == first), "torn version");
                    first
                })
            })
            .collect();
        // The writer: publish a replacement and immediately try to
        // reclaim — racing the readers' pin windows.
        cell.publish(vec![2u64; 3]);
        cell.gc();
        for r in readers {
            let seen = r.join().expect("reader panicked");
            assert!(seen == 1 || seen == 2, "reader saw a freed version");
        }
        // All pins dropped at join: everything retired must now free.
        cell.gc();
        assert_eq!(cell.retired_count(), 0, "unpinned retiree leaked");
    });
}

/// A slab-backed graph, compacted and published while pinned readers
/// traverse the old version's slab views: the compact-as-publish path
/// the core catalog runs. Readers must observe internally consistent
/// adjacency no matter where the publish lands, and the displaced
/// version must reclaim only after the pins drop.
#[test]
fn compact_as_publish_racing_slab_readers() {
    ringo_check::check("epoch_compact_publish", || {
        // 0 -> {1, 2}, 1 -> {2}, bulk-loaded so the lists are views into
        // one shared slab; deleting 1->2 strands a dead range that
        // compaction reclaims.
        let mut g = DirectedGraph::from_sorted_parts(
            vec![0, 1, 2],
            &[0, 0, 1, 3],
            Arc::from([0, 0, 1]),
            &[0, 2, 3, 3],
            Arc::from([1, 2, 2]),
        );
        g.del_edge(1, 2);
        let domain = Arc::new(EpochDomain::with_slots(4));
        let cell = Arc::new(Versioned::new(Arc::clone(&domain), Arc::new(g)));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (d, c) = (Arc::clone(&domain), Arc::clone(&cell));
                vthread::spawn(move || {
                    let guard = d.pin();
                    let graph = c.load(&guard);
                    // Whatever version the pin caught, its adjacency is
                    // the same logical graph — compaction must be a pure
                    // storage rewrite.
                    assert_eq!(graph.out_nbrs(0), &[1, 2]);
                    assert_eq!(graph.out_nbrs(1), &[] as &[i64]);
                    assert_eq!(graph.in_nbrs(2), &[0]);
                    graph.edge_count()
                })
            })
            .collect();
        // Compact-as-publish: rewrite the surviving lists into a fresh
        // exact slab and install the rewrite as the new version.
        let mut rewritten = DirectedGraph::clone(cell.load(&domain.pin()));
        let stats = rewritten.compact();
        assert_eq!(stats.after.dead_slab_bytes(), 0);
        cell.publish(Arc::new(rewritten));
        cell.gc();
        for r in readers {
            assert_eq!(r.join().expect("reader panicked"), 2);
        }
        cell.gc();
        assert_eq!(cell.retired_count(), 0, "old slab version leaked");
    });
}

// ---- weakened variants the checker must kill --------------------------
//
// Miniature of the pin/reclaim Dekker pair, small enough for dense
// schedule coverage: one slot, the global epoch at 1, version v1 retired
// at epoch 2 by the writer's publish, and a `freed` cell standing in for
// the reclamation the real `gc` performs. The reader asserts the
// invariant the epoch layer exists to provide: a validated pin at epoch
// 1 means v1 is still alive.

/// The correct protocol: pin with SeqCst store + SeqCst re-validation,
/// scan with SeqCst loads. Passes every strategy — establishing that the
/// kills below blame the mutations, not the harness.
fn pin_scan_body(revalidate: bool, scan_order: Ordering) {
    let global = Arc::new(VAtomicU64::new(1));
    let slot = Arc::new(VAtomicU64::new(UNPINNED));
    let freed = Arc::new(VAtomicU64::new(0));
    let (g, s, f) = (Arc::clone(&global), Arc::clone(&slot), Arc::clone(&freed));
    let reader = vthread::spawn(move || {
        let mut e = g.load(Ordering::Acquire);
        if revalidate {
            loop {
                s.store(e, Ordering::SeqCst);
                let seen = g.load(Ordering::SeqCst);
                if seen == e {
                    break;
                }
                e = seen;
            }
        } else {
            // MUTATION: the re-validation loop dropped — the pin may be
            // invisible to a scan that raced the publish.
            s.store(e, Ordering::SeqCst);
        }
        if e == 1 {
            assert_eq!(
                f.load(Ordering::SeqCst),
                0,
                "reader holds a validated pin at epoch 1 but v1 was freed"
            );
        }
        s.store(UNPINNED, Ordering::Release);
    });
    // Writer: publish (v1 retired at the post-advance epoch 2), then the
    // reclamation scan — free v1 iff min_pinned >= 2.
    global.store(2, Ordering::SeqCst);
    let min = slot.load(scan_order);
    if min >= 2 {
        freed.store(1, Ordering::SeqCst);
    }
    reader.join().expect("reader panicked");
}

/// Mutation: pin without the re-validation loop. A pure interleaving
/// bug — the reader reads epoch 1, the writer advances and scans before
/// the slot store lands, frees v1, and the late pin guards nothing.
#[test]
fn missing_pin_revalidation_is_caught() {
    let body = || pin_scan_body(false, Ordering::SeqCst);
    let failure = explore(
        &opts(
            "epoch_missing_revalidation",
            vec![Strategy::Pct { depth: 3 }],
        ),
        body,
    )
    .expect_err("unvalidated pin must be killed within the budget");
    assert_deterministic_replay(&failure, body);

    // Control: the full protocol survives the same budget under every
    // strategy the mutations run with.
    explore(
        &opts(
            "epoch_revalidation_control",
            vec![
                Strategy::RoundRobin,
                Strategy::Random,
                Strategy::Pct { depth: 3 },
            ],
        ),
        || pin_scan_body(true, Ordering::SeqCst),
    )
    .expect("correct pin protocol must pass");
}

/// Mutation: the reclamation scan demoted to `Relaxed`. Under the weak
/// memory model the scan may legally read the slot's stale UNPINNED
/// value even though the reader's SeqCst pin is complete — freeing v1
/// under a validated pin. Only the randomized strategies' stale-read
/// exploration can expose it.
#[test]
fn relaxed_reclamation_scan_is_caught() {
    let body = || pin_scan_body(true, Ordering::Relaxed);
    let failure = explore(&opts("epoch_relaxed_scan", vec![Strategy::Random]), body)
        .expect_err("relaxed scan must be killed within the budget");
    assert_deterministic_replay(&failure, body);
}

// ---- pinned replay regression -----------------------------------------

/// A `RINGO_CHECK_SEED` discovered by `epoch_missing_revalidation`
/// exploration, pinned forever: replaying it against the weakened body
/// must keep producing the same violation with the same trace. Guards
/// both the bug's visibility and the replay contract (see
/// `tests/replay.rs` for the policy on regenerating seeds after a
/// deliberate scheduler change).
const MISSING_REVALIDATION_SEED: u64 = 0x82a9c50ceec1521a;

#[test]
fn pinned_seed_replays_missing_revalidation_kill() {
    let body = || pin_scan_body(false, Ordering::SeqCst);
    let r1 = replay(MISSING_REVALIDATION_SEED, body);
    let r2 = replay(MISSING_REVALIDATION_SEED, body);
    let m1 = r1.outcome.expect_err("pinned seed must fail");
    let m2 = r2.outcome.expect_err("pinned seed must fail");
    assert!(m1.contains("v1 was freed"), "wrong violation class: {m1}");
    assert_eq!(m1, m2, "replay must be deterministic");
    assert_eq!(r1.trace, r2.trace, "replay must follow the same schedule");
}
