//! Allocation discipline of reading slot rows across a write.
//!
//! Kernels read the graph's own rows, so a version published over its
//! parent is traversed as it is: its first reader builds, patches and
//! copies no view of the adjacency. `bench_e2e`'s `lj_churn` session
//! peaks inside that first BFS with two live versions resident, so a
//! reader that built a translated copy of the rows (+4 bytes a stored
//! neighbour) must fail here, in tier 1, not there. Edits track nothing
//! beside the lists they change: bulk `add_edge` construction, as in
//! `tw_convert`, allocates nothing for it.
//!
//! Kept in its own test binary, and the tests take `SERIAL`, so nothing
//! else moves the process-global allocation counters mid-measurement.

use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{DirectedGraph, Direction, NodeId, Ringo};
use ringo_rng::Rng64;
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn first_bfs_on_a_published_successor_patches_the_view_in_place() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Dense on purpose: 200k edges over 4k nodes, so a copy of the rows
    // (~1.6 MB) dwarfs the traversal state and the distance columns.
    let edges = rmat(&RmatConfig {
        scale: 12,
        edges: 200_000,
        seed: 5,
        ..Default::default()
    });
    let ringo = Ringo::new();
    let base = ringo::convert::table_to_graph(&edges_to_table(&edges), "src", "dst").unwrap();
    let mut ids: Vec<NodeId> = base.node_ids().collect();
    ids.sort_unstable();
    let src = ids[0];
    ringo.publish_graph("g", base);

    let reader = ringo.snapshot();
    let parent = reader.graph("g").expect("g is published");
    let reached = ringo.bfs(parent, src, Direction::Out).len();

    // One churn step: the previous reader still pins the parent.
    let mut next = DirectedGraph::clone(parent);
    let mut rng = Rng64::new(9);
    for _ in 0..100 {
        let (s, d) = edges[rng.below(edges.len())];
        next.del_edge(s, d);
        next.add_edge(ids[rng.below(ids.len())], ids[rng.below(ids.len())]);
    }
    next.add_edge(src, NodeId::MAX - 1);
    ringo.publish_graph("g", next);
    let current = ringo.snapshot();
    let successor = current.graph("g").expect("successor is current");

    let live = current_bytes();
    reset_peak();
    let again = ringo.bfs(successor, src, Direction::Out).len();
    let transient = peak_bytes() - live;
    assert!(
        again > reached / 2,
        "the probe still reaches the giant component"
    );
    let rows_bytes = 4 * successor.total_degree(Direction::Both) as usize;
    assert!(rows_bytes > 1_000_000);
    assert!(
        transient < rows_bytes / 4,
        "first BFS on the successor peaked {transient} B above the live heap; \
         a copy of its rows would be {rows_bytes} B"
    );
}

#[test]
fn edits_without_a_cached_view_allocate_nothing_for_dirty_tracking() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // A star, built and torn down once: every list keeps its capacity, so
    // the edits measured below allocate nothing of their own.
    let mut g = DirectedGraph::new();
    for leaf in 1..=50_000 {
        g.add_edge(0, leaf);
    }
    for leaf in 1..=50_000 {
        g.del_edge(0, leaf);
    }
    let live = current_bytes();
    reset_peak();
    for leaf in 1..=50_000 {
        assert!(g.add_edge(0, leaf));
    }
    let transient = peak_bytes() - live;
    // One bit per slot and orientation would be 12.5 KB.
    assert!(
        transient < 1024,
        "50k edits peaked {transient} B above the live heap"
    );
}
