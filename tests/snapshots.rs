//! Snapshot isolation over the versioned catalog.
//!
//! The catalog's contract, exercised end-to-end through the [`Ringo`]
//! facade: a [`ringo::Snapshot`] reads **one** version of every name for
//! its whole lifetime — queries and graph algorithms resolved through it
//! return bit-identical results no matter how many publishes,
//! compactions, and gc passes land concurrently — and a displaced
//! version stays alive exactly as long as some snapshot holds it: its
//! bytes come back (allocator-verified) when the last such snapshot
//! drops, with no `gc` call, even when that snapshot is dropped by a
//! panic.
//!
//! Kept in its own test binary because the reclamation tests measure the
//! process-global [`TrackingAllocator`] live-byte counter; they take
//! [`BIG`] so only one of them allocates its 64 MB table at a time, and
//! the other tests here keep their working sets far below the signal.

use ringo::trace::mem::{current_bytes, TrackingAllocator};
use ringo::{Cmp, Dataset, Direction, Predicate, Ringo, Snapshot, Table};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Rows of the reclamation tests' table: 8 Mi rows * 8 B = 64 MB.
const ROWS: usize = 8 << 20;
/// Half the table: a byte change this large is unambiguous.
const SIGNAL: usize = 32 << 20;

/// Held by each test that allocates a `ROWS` table, so no measurement
/// window sees another test's 64 MB come or go.
static BIG: Mutex<()> = Mutex::new(());

fn big_lock() -> MutexGuard<'static, ()> {
    BIG.lock().unwrap_or_else(PoisonError::into_inner)
}

fn big_table() -> Table {
    Table::from_int_column("x", (0..ROWS as i64).collect())
}

/// A snapshot never reads a version newer than its own epoch: every
/// name's publish epoch is at most the epoch of the root it reads.
fn assert_epochs_consistent(snap: &Snapshot, threads: usize) {
    for name in snap.names() {
        let meta = snap.meta(name).expect("bound name has metadata");
        assert!(
            meta.epoch <= snap.epoch(),
            "{name} v{} was published at epoch {}, after the snapshot's \
             epoch {} (threads={threads})",
            meta.version,
            meta.epoch,
            snap.epoch()
        );
    }
}

/// Order- and representation-sensitive digest of a table: row count,
/// schema, row ids, and every cell (floats by raw bits). Two tables
/// fingerprint equal iff they are bit-identical relations.
fn table_fingerprint(t: &Table) -> u64 {
    let mut h = DefaultHasher::new();
    t.n_rows().hash(&mut h);
    t.row_ids().hash(&mut h);
    for (name, ty) in t.schema().iter() {
        name.hash(&mut h);
        (ty as u8).hash(&mut h);
        match ty {
            ringo::ColumnType::Int => t.int_col(name).unwrap().hash(&mut h),
            ringo::ColumnType::Float => {
                for v in t.float_col(name).unwrap() {
                    v.to_bits().hash(&mut h);
                }
            }
            ringo::ColumnType::Str => {
                for &sym in t.str_sym_col(name).unwrap() {
                    t.str_value(sym).hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

/// Digest of BFS distances + PageRank over the snapshot's graph —
/// deterministic per version, floats compared by raw bits.
fn graph_fingerprint(ringo: &Ringo, snap: &Snapshot, name: &str, src: i64) -> u64 {
    let g = snap.graph(name).expect("graph bound in snapshot");
    let mut h = DefaultHasher::new();
    g.node_count().hash(&mut h);
    g.edge_count().hash(&mut h);
    let dist = ringo.bfs(g, src, Direction::Out);
    let mut pairs: Vec<(i64, u32)> = dist.iter().map(|(k, v)| (k, *v)).collect();
    pairs.sort_unstable();
    pairs.hash(&mut h);
    let mut pr = ringo.pagerank(g);
    pr.sort_by_key(|a| a.0);
    for (id, score) in pr {
        id.hash(&mut h);
        score.to_bits().hash(&mut h);
    }
    h.finish()
}

/// The query every reader runs: select + named join + order, resolved
/// entirely through the pinned snapshot.
fn snapshot_query_fingerprint(ringo: &Ringo, snap: &Snapshot) -> u64 {
    let result = ringo
        .query_at(snap, "edges")
        .unwrap()
        .select(&Predicate::int("src", Cmp::Ge, 8))
        .join_named(snap, "edges", "dst", "src")
        .unwrap()
        .order_by(&["src", "dst"], true)
        .collect()
        .unwrap();
    table_fingerprint(&result)
}

/// A pinned snapshot's query and algorithm results are bit-identical
/// before, during, and after a concurrent publish + compact + gc storm,
/// at every thread count the morsel engine parallelizes over.
#[test]
fn pinned_reads_bit_identical_across_publish_storm() {
    for threads in [1usize, 2, 4, 8] {
        let ringo = Ringo::with_threads(threads);
        let edges = ringo.generate_lj_like(0.004, 42);
        ringo.publish_table("edges", edges.clone());
        let mut g = ringo.to_graph(&edges, "src", "dst").unwrap();
        // Strand dead slab ranges so the concurrent compactions below
        // actually rewrite storage under the pinned reader.
        let victims: Vec<(i64, i64)> = g
            .node_ids()
            .take(8)
            .flat_map(|u| g.out_nbrs(u).map(move |v| (u, v)))
            .collect();
        for (u, v) in victims {
            g.del_edge(u, v);
        }
        let src = g.node_ids().next().unwrap();
        ringo.publish_graph("g", g);

        // Pin BEFORE the storm; baseline under quiescence.
        let snap = ringo.snapshot();
        let base_query = snapshot_query_fingerprint(&ringo, &snap);
        let base_graph = graph_fingerprint(&ringo, &snap, "g", src);

        // The storm: a writer republishing both names, compacting the
        // graph, and gc'ing as fast as it can.
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (ringo, stop) = (ringo.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = ringo.generate_lj_like(0.002, 100 + round);
                    ringo.publish_table("edges", t);
                    if let Some(Dataset::Graph(cur)) = ringo.get("g") {
                        let mut next = (*cur).clone();
                        next.add_edge(9_000_000 + round as i64, 9_000_001 + round as i64);
                        ringo.publish_graph("g", next);
                    }
                    ringo.compact_graph("g");
                    ringo.catalog_gc();
                    round += 1;
                }
                round
            })
        };

        // Make sure the storm has actually landed at least one publish
        // before asserting, so reads and writes genuinely overlap.
        while ringo.versions("edges").len() < 2 {
            std::thread::yield_now();
        }

        // Readers on the pinned snapshot must never block on the writer
        // and must see the pinned version, bit for bit, every time.
        for _ in 0..6 {
            assert_eq!(
                snapshot_query_fingerprint(&ringo, &snap),
                base_query,
                "query drifted under publish storm (threads={threads})"
            );
        }
        assert_eq!(
            graph_fingerprint(&ringo, &snap, "g", src),
            base_graph,
            "graph results drifted under publish storm (threads={threads})"
        );

        // Snapshots taken while the writer publishes each read one root,
        // and report that root's epoch.
        let storm_start = ringo.versions("edges").len();
        let mut taken = 0;
        while taken < 200 || ringo.versions("edges").len() < storm_start + 2 {
            assert_epochs_consistent(&ringo.snapshot(), threads);
            taken += 1;
        }

        stop.store(true, Ordering::Relaxed);
        let rounds = writer.join().unwrap();
        assert!(rounds > 0, "writer made progress while readers were pinned");

        // The snapshot still reads its original version by metadata too.
        assert_eq!(snap.meta("edges").unwrap().version, 1);
        assert_eq!(snap.meta("g").unwrap().version, 1);
        assert!(
            ringo.versions("edges").len() as u64 > rounds,
            "publishes recorded in lineage"
        );

        // After the pin drops, gc drains everything the storm retired.
        drop(snap);
        ringo.catalog_gc();
        assert_eq!(ringo.catalog().retired_count(), 0);
    }
}

/// `gc` must not reclaim a version a live snapshot holds, and the
/// version's bytes must come back when the snapshot drops, with no `gc`
/// call — verified against the tracking allocator's live-byte counter
/// with a 64 MB table, a signal two orders of magnitude above this
/// binary's other traffic.
#[test]
fn gc_spares_pinned_versions_and_reclaims_after_unpin() {
    let _big = big_lock();
    let ringo = Ringo::with_threads(2);
    let catalog = ringo.catalog();

    let expect_sum: i64 = (0..ROWS as i64).sum();
    ringo.publish_table("big", big_table());

    let snap = ringo.snapshot();

    // Displace the 64 MB version while the snapshot holds it; gc must
    // leave it alone.
    ringo.publish_table("big", Table::from_int_column("x", vec![1, 2, 3]));
    let pinned_floor = current_bytes();
    ringo.catalog_gc();
    assert!(
        catalog.retired_count() > 0,
        "displaced version must stay retired while pinned"
    );
    let after_pinned_gc = current_bytes();
    assert!(
        pinned_floor.saturating_sub(after_pinned_gc) < SIGNAL,
        "gc freed ~{} bytes while the version was pinned",
        pinned_floor.saturating_sub(after_pinned_gc)
    );

    // The pinned snapshot still reads the full 64 MB version, intact.
    let t = snap.table("big").expect("pinned version readable");
    assert_eq!(t.n_rows(), ROWS);
    let sum: i64 = t.int_col("x").unwrap().iter().sum();
    assert_eq!(sum, expect_sum, "pinned version corrupted");

    // Unpin: dropping the snapshot itself returns the memory.
    let before_free = current_bytes();
    drop(snap);
    let after_free = current_bytes();
    assert!(
        before_free.saturating_sub(after_free) >= SIGNAL,
        "expected >= {} bytes back when the snapshot dropped, got {}",
        SIGNAL,
        before_free.saturating_sub(after_free)
    );
    assert_eq!(catalog.retired_count(), 0);
    let freed_versions = ringo.catalog_gc();
    assert!(freed_versions > 0, "gc reports the version that died");
    assert_eq!(catalog.retired_count(), 0);

    // Current version unaffected throughout.
    let cur = ringo
        .get("big")
        .and_then(|d| d.as_table().cloned())
        .unwrap();
    assert_eq!(cur.int_col("x").unwrap(), &[1, 2, 3]);
}

/// A version displaced after a snapshot was taken, but not held by it,
/// is freed at once: the snapshot keeps only the root it read.
#[test]
fn a_version_no_snapshot_holds_is_freed_when_displaced() {
    let _big = big_lock();
    let ringo = Ringo::with_threads(2);
    ringo.publish_table("t", Table::from_int_column("x", vec![1]));
    let snap = ringo.snapshot();

    let base = current_bytes();
    ringo.publish_table("t", big_table());
    assert!(
        current_bytes().saturating_sub(base) >= SIGNAL,
        "the 64 MB version is live while current"
    );
    ringo.publish_table("t", Table::from_int_column("x", vec![3]));
    let left = current_bytes().saturating_sub(base);
    assert!(
        left < SIGNAL,
        "the displaced 64 MB version still holds ~{left} bytes with no \
         snapshot on it"
    );
    assert_eq!(ringo.catalog().retired_count(), 1, "only the held root");
    assert_eq!(snap.table("t").unwrap().int_col("x").unwrap(), &[1]);
}

/// A thread that takes a snapshot and panics leaves no reader behind:
/// the unwind drops the snapshot, the version only it held is freed,
/// and every catalog verb still works.
#[test]
fn a_panicking_reader_releases_its_snapshot() {
    let _big = big_lock();
    let ringo = Ringo::with_threads(2);
    let base = current_bytes();
    ringo.publish_table("big", big_table());

    let reader = {
        let ringo = ringo.clone();
        std::thread::spawn(move || {
            let snap = ringo.snapshot();
            ringo.publish_table("big", Table::from_int_column("x", vec![1]));
            assert_eq!(snap.table("big").unwrap().n_rows(), ROWS);
            panic!("reader fails while holding a snapshot");
        })
    };
    assert!(reader.join().is_err(), "the reader panicked");

    let catalog = ringo.catalog();
    assert_eq!(
        catalog.pinned_readers(),
        0,
        "the unwind dropped the snapshot"
    );
    let left = current_bytes().saturating_sub(base);
    assert!(
        left < SIGNAL,
        "the version only the panicked reader held still holds ~{left} bytes"
    );

    let mut g = ringo::DirectedGraph::new();
    for i in 0..20i64 {
        g.add_edge(i, i + 1);
    }
    g.del_edge(0, 1);
    assert_eq!(ringo.publish_graph("g", g), 1);
    let (version, stats) = ringo.compact_graph("g").expect("g is a graph");
    assert_eq!(version, 2);
    assert_eq!(stats.after.dead_slab_bytes(), 0);
    let snap = ringo.snapshot();
    assert_eq!(snap.meta("g").unwrap().version, 2);
    assert_eq!(snap.table("big").unwrap().int_col("x").unwrap(), &[1]);
    assert_eq!(catalog.pinned_readers(), 1);
    assert!(ringo.catalog_gc() >= 1, "gc reports the freed version");
    drop(snap);
    assert_eq!(catalog.retired_count(), 0);
}

/// Two snapshots pinned around a publish see different versions of the
/// same name — and each keeps seeing its own, even after the other is
/// dropped and collected.
#[test]
fn interleaved_snapshots_each_keep_their_version() {
    let ringo = Ringo::with_threads(2);
    ringo.publish_table("t", Table::from_int_column("v", vec![1; 100]));
    let s1 = ringo.snapshot();
    ringo.publish_table("t", Table::from_int_column("v", vec![2; 200]));
    let s2 = ringo.snapshot();
    ringo.publish_table("t", Table::from_int_column("v", vec![3; 300]));

    assert_eq!(s1.table("t").unwrap().n_rows(), 100);
    assert_eq!(s2.table("t").unwrap().n_rows(), 200);
    assert_eq!(s1.meta("t").unwrap().version, 1);
    assert_eq!(s2.meta("t").unwrap().version, 2);
    assert!(s1.epoch() < s2.epoch());

    drop(s1);
    ringo.catalog_gc();
    // s2 unaffected by s1's version being collected.
    assert_eq!(s2.table("t").unwrap().int_col("v").unwrap()[0], 2);
    assert_eq!(
        ringo
            .get("t")
            .and_then(|d| d.as_table().map(|t| t.int_col("v").unwrap()[0])),
        Some(3)
    );
    drop(s2);
    ringo.catalog_gc();
    assert_eq!(ringo.catalog().retired_count(), 0);
}
