//! Allocation discipline of triangle counting.
//!
//! `count_triangles` works on the graph's own sorted neighbour lists: no
//! oriented copy, no per-node scratch. What it does allocate is one pool
//! job and one bitmap over the slots per executor (`n_slots / 8` bytes,
//! at most the pool's workers plus the calling thread), never one per
//! block of slots. This test pins that in *bytes*: `bench_e2e`'s
//! `lj_triangles` session peaks 1.5% above its resident input against a
//! 5% bound, and an oriented adjacency copy (4 bytes per stored
//! neighbour; DESIGN.md, "Triangles") must fail here, in tier 1, not
//! there. It pins the bitmaps in allocations, and `node_triangles` at its
//! result plus the bitmaps.
//!
//! Kept in its own test binary, and the tests take `SERIAL`, so nothing
//! else moves the process-global allocation counters mid-measurement.

use ringo::algo::{count_triangles, node_triangles};
use ringo::concurrent::Pool;
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::trace::mem::{alloc_count, current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::UndirectedGraph;
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

/// A 200k-edge R-MAT on 16,384 ids, 11,996 of them in an edge: 188
/// blocks of 64 slots.
fn rmat_graph() -> UndirectedGraph {
    let edges = rmat(&RmatConfig {
        scale: 14,
        edges: 200_000,
        seed: 5,
        ..Default::default()
    });
    let g = ringo::convert::table_to_undirected(&edges_to_table(&edges), "src", "dst").unwrap();
    assert!(g.edge_count() > 150_000);
    g
}

/// Executors that may each hold a bitmap: the pool's workers and the
/// calling thread.
fn executors() -> usize {
    Pool::global().workers() + 1
}

#[test]
fn count_triangles_allocates_nothing_proportional_to_the_graph() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let g = rmat_graph();

    // The first call starts the worker pool, which the process keeps.
    let warm = count_triangles(&g, 4);
    assert!(warm > 0);

    let live = current_bytes();
    reset_peak();
    let allocs = alloc_count();
    let again = count_triangles(&g, 4);
    let allocs = alloc_count() - allocs;
    let transient = peak_bytes() - live;
    assert_eq!(again, warm);
    assert!(
        transient < 64 << 10,
        "count_triangles peaked {transient} B above the live heap on a graph of {} B",
        g.mem_size()
    );
    // One bitmap an executor, plus the job and its list of idle bitmaps:
    // a bitmap a block would be 188 here.
    let blocks = g.n_slots().div_ceil(64);
    assert!(blocks > 100);
    assert!(
        allocs <= executors() + 2,
        "{allocs} allocations for {} executors and {blocks} blocks",
        executors()
    );
    let sequential = alloc_count();
    assert_eq!(count_triangles(&g, 1), warm);
    assert_eq!(alloc_count() - sequential, 1, "one bitmap at one thread");
}

#[test]
fn node_triangles_peaks_at_its_output_and_the_bitmaps() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let g = rmat_graph();
    let warm = node_triangles(&g, 4);

    let live = current_bytes();
    reset_peak();
    let again = node_triangles(&g, 4);
    let transient = peak_bytes() - live;
    assert_eq!(again, warm);
    // The result is 20 B a slot: the kernel's 8-B-a-slot counts, kept as
    // the value column, and the id and position columns packed beside
    // them.
    let bitmap = g.n_slots().div_ceil(64) * 8;
    let bound = 20 * g.n_slots() + executors() * bitmap + (64 << 10);
    assert!(
        transient <= bound,
        "node_triangles peaked {transient} B above the live heap, bound {bound} B \
         ({} slots)",
        g.n_slots()
    );
}
