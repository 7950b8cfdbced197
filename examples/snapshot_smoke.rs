//! Snapshot smoke: drives the versioned catalog end-to-end so CI can pin
//! the snapshot contract.
//!
//! Run with `RINGO_THREADS=4 RINGO_TRACE_JSON=snapshot_smoke.json \
//! cargo run --release --example snapshot_smoke`. The flow is the
//! paper's interactive-session story under mutation: publish a table and
//! a graph, pin a snapshot, then republish both names, compact the
//! graph's adjacency slabs, and gc — the pinned snapshot's query and BFS
//! checksums must come out bit-identical before and after the storm, the
//! dead slab bytes must actually be reclaimed, and the dumped trace must
//! carry `catalog.*` spans for every phase.

use ringo::trace::mem::TrackingAllocator;
use ringo::{Cmp, Dataset, Direction, Predicate, Ringo, Snapshot, Table};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Bit-exact digest of a table: row ids and every cell, floats by raw
/// bits.
fn table_checksum(t: &Table) -> u64 {
    let mut h = DefaultHasher::new();
    t.n_rows().hash(&mut h);
    t.row_ids().hash(&mut h);
    for (name, ty) in t.schema().iter() {
        name.hash(&mut h);
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

/// Digest of the snapshot-resolved session: a select + self-join query
/// over `edges` and a BFS sweep over `g`, all through one pinned epoch.
fn session_checksum(ringo: &Ringo, snap: &Snapshot, src: i64) -> u64 {
    let mut h = DefaultHasher::new();
    let q = ringo
        .query_at(snap, "edges")
        .expect("edges bound")
        .select(&Predicate::int("src", Cmp::Ge, 4))
        .join_named(snap, "edges", "dst", "src")
        .expect("edges bound")
        .order_by(&["src", "dst"], true)
        .collect()
        .expect("snapshot query");
    table_checksum(&q).hash(&mut h);
    let g = snap.graph("g").expect("g bound");
    g.edge_count().hash(&mut h);
    let mut dist: Vec<(i64, u32)> = ringo
        .bfs(g, src, Direction::Out)
        .iter()
        .map(|(k, v)| (k, *v))
        .collect();
    dist.sort_unstable();
    dist.hash(&mut h);
    h.finish()
}

fn main() {
    let _trace = ringo::trace::init_from_env();
    let ringo = Ringo::new();

    // ---- publish v1 of both names ----
    let edges = ringo.generate_lj_like(0.01, 11);
    let ev = ringo.publish_table("edges", edges.clone());
    let mut g = ringo.to_graph(&edges, "src", "dst").unwrap();
    // Strand dead slab ranges so the compaction below has real work.
    let victims: Vec<(i64, i64)> = g
        .node_ids()
        .take(32)
        .flat_map(|u| g.out_nbrs(u).map(move |v| (u, v)))
        .collect();
    for &(u, v) in &victims {
        g.del_edge(u, v);
    }
    let src = g.node_ids().next().unwrap();
    let dead_before = g.adjacency_stats().dead_slab_bytes();
    assert!(dead_before > 0, "edge deletions must strand slab bytes");
    let gv = ringo.publish_graph("g", g);
    println!("published edges v{ev}, g v{gv} (dead slab bytes: {dead_before})");

    // ---- pin, then mutate everything under the pin ----
    let snap = ringo.snapshot();
    let baseline = session_checksum(&ringo, &snap, src);

    let ev2 = ringo.publish_table("edges", ringo.generate_lj_like(0.005, 99));
    let Some(Dataset::Graph(cur)) = ringo.get("g") else {
        panic!("g must be bound");
    };
    let mut mutated = (*cur).clone();
    mutated.add_edge(1 << 40, (1 << 40) + 1);
    let gv2 = ringo.publish_graph("g", mutated);
    let (gv3, stats) = ringo.compact_graph("g").expect("g is a graph");
    assert!(
        stats.reclaimed_bytes() > 0,
        "compaction must reclaim the stranded slab bytes"
    );
    assert_eq!(stats.after.dead_slab_bytes(), 0, "compact leaves no waste");
    println!(
        "mutated: edges v{ev2}, g v{gv2}, compacted as v{gv3} \
         (reclaimed {} bytes)",
        stats.reclaimed_bytes()
    );

    // ---- the pinned session must be bit-identical ----
    let after = session_checksum(&ringo, &snap, src);
    assert_eq!(
        baseline, after,
        "pinned snapshot's results changed under publish + compact"
    );
    assert_eq!(snap.meta("edges").unwrap().version, 1);
    assert_eq!(snap.meta("g").unwrap().version, 1);
    println!("pinned session checksum stable: {baseline:#018x}");

    // ---- unpin: gc drains every displaced version ----
    let retired_pinned = ringo.catalog().retired_count();
    assert!(retired_pinned > 0, "pin must hold displaced versions");
    drop(snap);
    ringo.catalog_gc();
    assert_eq!(ringo.catalog().retired_count(), 0, "gc drains after unpin");
    println!(
        "gc: {retired_pinned} version(s) held under pin, 0 retired after unpin \
         (epoch {})",
        ringo.catalog().epoch()
    );

    // Fresh reads see the compacted current version.
    let snap2 = ringo.snapshot();
    assert_eq!(snap2.meta("g").unwrap().version, 3);
    let g2 = snap2.graph("g").unwrap();
    assert_eq!(g2.adjacency_stats().dead_slab_bytes(), 0);
    println!(
        "current g v3: {} nodes / {} edges, zero dead slab bytes",
        g2.node_count(),
        g2.edge_count()
    );
    println!("snapshot smoke OK");
}
