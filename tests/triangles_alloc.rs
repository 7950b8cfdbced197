//! Allocation discipline of triangle counting.
//!
//! `count_triangles` works on the graph's own sorted neighbour lists: no
//! oriented copy, no per-node scratch, no per-thread buffers. What it
//! does allocate — one pool job — is independent of the graph. This
//! test pins that in *bytes*: `bench_e2e`'s `lj_triangles` session peaks
//! 1.5% above its resident input against a 5% bound, and an oriented
//! adjacency copy (4 bytes per stored neighbour; DESIGN.md, "Triangles")
//! must fail here, in tier 1, not there.
//!
//! Kept in its own test binary so nothing else moves the process-global
//! allocation counters mid-measurement.

use ringo::algo::count_triangles;
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn count_triangles_allocates_nothing_proportional_to_the_graph() {
    let edges = rmat(&RmatConfig {
        scale: 14,
        edges: 200_000,
        seed: 5,
        ..Default::default()
    });
    let g = ringo::convert::table_to_undirected(&edges_to_table(&edges), "src", "dst").unwrap();
    assert!(g.edge_count() > 150_000);

    // The first call starts the worker pool, which the process keeps.
    let warm = count_triangles(&g, 4);
    assert!(warm > 0);

    let live = current_bytes();
    reset_peak();
    let again = count_triangles(&g, 4);
    let transient = peak_bytes() - live;
    assert_eq!(again, warm);
    assert!(
        transient < 64 << 10,
        "count_triangles peaked {transient} B above the live heap on a graph of {} B",
        g.mem_size()
    );
}
