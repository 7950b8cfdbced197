//! Allocator-counted proof that the conversion is allocation-free per
//! node: the number of heap allocations made by a whole [`table_to_graph`]
//! — sort, fill and graph install — is bounded by a small constant
//! (whole-phase buffers and pool plumbing), not by the node count. The
//! pre-radix pipeline allocated at least one `Vec` per node — tens of
//! thousands of allocations at this scale.

use ringo_convert::table_to_graph;
use ringo_gen::edges_to_table;
use ringo_trace::mem::{alloc_count, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Ring + chord edges with duplicates: every node appears on both sides,
/// runs have repeated neighbors to exercise the dedup path.
fn ring_table(n_nodes: i64) -> ringo_table::Table {
    let mut edges: Vec<(i64, i64)> = Vec::new();
    for i in 0..n_nodes {
        edges.push((i, (i + 1) % n_nodes));
        edges.push((i, (i + 1) % n_nodes)); // duplicate edge
        edges.push((i, (i + 7) % n_nodes));
    }
    let mut t = edges_to_table(&edges);
    t.set_threads(4);
    t
}

/// Allocations of one warmed-up conversion of an `n_nodes` ring.
fn conversion_allocs(n_nodes: i64) -> usize {
    let t = ring_table(n_nodes);
    // Warm the worker pool and code path so one-time setup (thread
    // spawns, channel buffers) is not charged to the measured run.
    let warm = table_to_graph(&t, "src", "dst").unwrap();
    assert_eq!(warm.node_count() as i64, n_nodes);

    let before = alloc_count();
    let g = table_to_graph(&t, "src", "dst").unwrap();
    let delta = alloc_count() - before;

    assert_eq!(g.node_count() as i64, n_nodes);
    assert_eq!(g.edge_count() as i64, 2 * n_nodes, "deduplicated");
    assert_eq!(g.in_nbrs(0).len(), 2);
    delta
}

#[test]
fn conversion_allocation_count_is_independent_of_node_count() {
    let small = conversion_allocs(5_000);
    let large = conversion_allocs(50_000);
    // The per-node-Vec pipeline would allocate >= N_NODES times here; the
    // slab fill does a bounded number of whole-phase allocations.
    assert!(
        large < 1_000,
        "conversion made {large} allocations for 50000 nodes"
    );
    assert!(
        large <= small + 64,
        "allocations grew with the node count: {small} at 5k nodes, {large} at 50k"
    );
}
