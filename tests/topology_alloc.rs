//! Allocation discipline of carrying a `Topology` across a write.
//!
//! A version published over its parent inherits the parent's slot-CSR
//! view and its first reader patches it **in place**: `bench_e2e`'s
//! `lj_churn` session peaks inside that first BFS with the two live
//! versions and one 17.7 MB view resident, 5% under its heap bound, so a
//! patch that built the next view beside the old one (+1× the view) must
//! fail here, in tier 1, not there. Dirty tracking is paid only while a
//! view is cached: bulk `add_edge` construction, as in `tw_convert`,
//! allocates nothing for it.
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
    // Dense on purpose: 200k edges over 4k nodes, so the view (~1.6 MB)
    // dwarfs the traversal state and the distance table.
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
    let view_bytes = parent.topology_bytes();
    assert!(view_bytes > 1_000_000, "the first probe built the view");

    // One churn step: the previous reader still pins the parent.
    let mut next = DirectedGraph::clone(parent);
    let mut rng = Rng64::new(9);
    for _ in 0..100 {
        let (s, d) = edges[rng.below(edges.len())];
        next.del_edge(s, d);
        next.add_edge(ids[rng.below(ids.len())], ids[rng.below(ids.len())]);
    }
    next.add_edge(src, NodeId::MAX - 1);
    assert_eq!(next.topology_bytes(), view_bytes, "stale, and still held");
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
    assert!(
        transient < view_bytes / 4,
        "first BFS on the successor peaked {transient} B above the live heap; \
         a view built beside the old one would be {view_bytes} B"
    );
    let view = successor.topology();
    assert_eq!(view.n_slots(), successor.n_slots());
    assert_eq!(
        view.total_degree(Direction::Out),
        successor.edge_count() as u64
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
    assert_eq!(g.topology_bytes(), 0, "nothing was ever cached");
    let live = current_bytes();
    reset_peak();
    for leaf in 1..=50_000 {
        assert!(g.add_edge(0, leaf));
    }
    let transient = peak_bytes() - live;
    assert_eq!(g.topology_bytes(), 0);
    // One bit per slot and orientation would be 12.5 KB.
    assert!(
        transient < 1024,
        "50k edits on an empty cell peaked {transient} B above the live heap"
    );
}
