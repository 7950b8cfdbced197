//! Snapshot isolation over the versioned catalog.
//!
//! The epoch machinery's contract, exercised end-to-end through the
//! [`Ringo`] facade: a pinned [`ringo::Snapshot`] reads **one** version
//! of every name for its whole lifetime — queries and graph algorithms
//! resolved through it return bit-identical results no matter how many
//! publishes, compactions, and gc passes land concurrently — and `gc`
//! never reclaims a version a live snapshot can still reach, but does
//! reclaim it (allocator-verified) the moment the pin drops.
//!
//! Kept in its own test binary because the reclamation test measures the
//! process-global [`TrackingAllocator`] live-byte counter; sibling tests
//! here keep their working sets far below the 64 MB signal it watches.

use ringo::trace::mem::{current_bytes, TrackingAllocator};
use ringo::{Cmp, Dataset, Direction, GcPolicy, Predicate, Ringo, Snapshot, Table};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

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

/// `gc` must not reclaim a version a live snapshot pins, and must
/// reclaim it once the pin drops — verified against the tracking
/// allocator's live-byte counter with a 64 MB table, a signal two
/// orders of magnitude above this binary's other traffic.
#[test]
fn gc_spares_pinned_versions_and_reclaims_after_unpin() {
    const ROWS: usize = 8 << 20; // 8 Mi rows * 8 B = 64 MB column
    const SIGNAL: usize = 32 << 20; // half the column: unambiguous

    let ringo = Ringo::with_threads(2);
    let catalog = ringo.catalog();
    assert_eq!(catalog.policy(), GcPolicy::Auto);

    let big = Table::from_int_column("x", (0..ROWS as i64).collect());
    let expect_sum: i64 = (0..ROWS as i64).sum();
    ringo.publish_table("big", big);

    let snap = ringo.snapshot();

    // Displace the 64 MB version while it is pinned. Auto-gc runs on
    // every publish — it must skip the pinned root.
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

    // Unpin: the next gc must actually return the memory.
    drop(snap);
    let before_free = current_bytes();
    let freed_versions = ringo.catalog_gc();
    let after_free = current_bytes();
    assert!(freed_versions > 0, "unpinned retiree must be collected");
    assert_eq!(catalog.retired_count(), 0);
    assert!(
        before_free.saturating_sub(after_free) >= SIGNAL,
        "expected >= {} bytes back after unpin, got {}",
        SIGNAL,
        before_free.saturating_sub(after_free)
    );

    // Current version unaffected throughout.
    let cur = ringo
        .get("big")
        .and_then(|d| d.as_table().cloned())
        .unwrap();
    assert_eq!(cur.int_col("x").unwrap(), &[1, 2, 3]);
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
