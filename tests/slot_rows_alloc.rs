//! Allocation discipline of slot rows as the storage.
//!
//! A graph stores each neighbour once per orientation, as a 4-byte slot:
//! a table-built graph is its slabs — exactly 4 bytes a stored neighbour —
//! plus the node table and the id index, and nothing else. Kernels read
//! those rows in place, so the first BFS, PageRank or SCC on a fresh
//! graph allocates per-slot state only, never a buffer the size of the
//! adjacency: `bench_e2e`'s `lj_kernels` session peaks inside its kernels
//! against a 5% bound, so a kernel that built a translated copy of the
//! rows must fail here, in tier 1, not there.
//!
//! Kept in its own test binary, and the tests take `SERIAL`, so nothing
//! else moves the process-global allocation counters mid-measurement.

use ringo::algo::{
    bfs_distances, eigenvector_centrality, hits, pagerank, personalized_pagerank,
    strongly_connected_components,
};
use ringo::convert::{table_to_graph, table_to_undirected};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{Direction, PageRankConfig, Ringo};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Upper bound on what one slot costs beside its rows: its id and one
/// 4-byte offset per orientation, and its share of the rank's bucket
/// array (under two 4-byte buckets a node).
const PER_SLOT: usize = 16 + 8;

fn table(scale: u32, edges: usize) -> ringo::Table {
    edges_to_table(&rmat(&RmatConfig {
        scale,
        edges,
        seed: 5,
        ..Default::default()
    }))
}

/// Bytes `f` leaves behind on the heap.
fn retained<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = current_bytes();
    let out = f();
    (out, current_bytes() - before)
}

#[test]
fn a_table_built_graph_is_four_bytes_a_neighbour_plus_its_node_table() {
    let _serial = serial();
    let t = table(14, 200_000);
    // A first conversion starts the worker pool and registers the spans'
    // histograms, which the process keeps.
    drop(table_to_undirected(&t, "src", "dst").unwrap());
    let (g, bytes) = retained(|| table_to_graph(&t, "src", "dst").unwrap());
    let (u, ubytes) = retained(|| table_to_undirected(&t, "src", "dst").unwrap());
    for (what, stored, slots, mem, adj, bytes) in [
        (
            "directed",
            g.total_degree(Direction::Both) as usize,
            g.n_slots(),
            g.mem_size(),
            g.adjacency_stats(),
            bytes,
        ),
        (
            "undirected",
            u.total_degree(Direction::Both) as usize,
            u.n_slots(),
            u.mem_size(),
            u.adjacency_stats(),
            ubytes,
        ),
    ] {
        assert!(stored > 300_000, "{what}: {stored} stored neighbours");
        // The rows: one slab per orientation, every byte in use.
        assert_eq!(adj.footprint_bytes(), 4 * stored, "{what}: 4 B a neighbour");
        assert_eq!(adj.live_slab_bytes, adj.total_slab_bytes, "{what}");
        assert_eq!(adj.owned_lists, 0, "{what}");
        // The rest of the footprint is the node table and the index.
        let node_table = mem - adj.footprint_bytes();
        assert!(
            node_table <= slots * PER_SLOT,
            "{what}: {node_table} B beside the rows for {slots} slots"
        );
        // And the allocator saw nothing else kept: no second copy of the
        // rows, no cached view.
        assert!(
            bytes <= mem + 4096,
            "{what}: conversion retained {bytes} B, the graph reports {mem} B"
        );
    }
}

#[test]
fn a_first_bfs_pagerank_or_scc_allocates_no_adjacency_sized_buffer() {
    let _serial = serial();
    // Dense on purpose: 200k edges over 4k nodes, so the rows (~1.3 MB)
    // dwarf any per-slot state.
    let t = table(12, 200_000);
    for kernel in ["bfs", "pagerank", "scc"] {
        let g = table_to_graph(&t, "src", "dst").unwrap();
        let rows = 4 * g.total_degree(Direction::Both) as usize;
        let src = g.node_ids().next().expect("non-empty");
        let live = current_bytes();
        reset_peak();
        let reached = match kernel {
            "bfs" => bfs_distances(&g, src, Direction::Out).len(),
            "pagerank" => pagerank(&g, &PageRankConfig::default()).len(),
            _ => strongly_connected_components(&g).comp_of.len(),
        };
        let transient = peak_bytes() - live;
        assert!(reached > 0, "{kernel}");
        assert!(
            transient < rows / 4,
            "first {kernel} on a fresh graph peaked {transient} B above the live heap; \
             a copy of its rows would be {rows} B"
        );
    }
}

/// What each score kernel allocated above the live heap, in bytes a slot,
/// before the iterative kernels shared one sweep and returned columns —
/// measured by the test below on the same graph at 2 threads. PageRank's
/// was its rank, share and next vectors (8 B each), the out-degrees (4 B),
/// a liveness flag (1 B) and the `(id, score)` pairs (16 B, grown by
/// doubling).
const BEFORE_THE_SWEEP: [(&str, f64); 5] = [
    ("pagerank", 50.86),
    ("Ringo::pagerank", 50.86),
    ("hits", 57.78),
    ("eigenvector", 38.86),
    ("ppr", 51.94),
];

#[test]
fn a_score_kernel_allocates_no_more_than_before_the_sweep() {
    let _serial = serial();
    let t = table(14, 200_000);
    let ringo = Ringo::with_threads(2);
    let g = ringo.to_graph(&t, "src", "dst").unwrap();
    let slots = g.n_slots() as f64;
    let cfg = PageRankConfig {
        threads: 2,
        ..PageRankConfig::default()
    };
    let seeds: Vec<i64> = g.node_ids().step_by(97).collect();
    // Start the pool and register the spans' histograms.
    drop(pagerank(&g, &cfg));
    drop(ringo.pagerank(&g));
    for (kernel, before) in BEFORE_THE_SWEEP {
        let live = current_bytes();
        reset_peak();
        let n = match kernel {
            "pagerank" => pagerank(&g, &cfg).len(),
            // Including the facade's copy into pairs.
            "Ringo::pagerank" => ringo.pagerank(&g).len(),
            "hits" => hits(&g, 10, 2).len(),
            "eigenvector" => eigenvector_centrality(&g, 30, 1e-10, 2).len(),
            _ => personalized_pagerank(&g, &seeds, &cfg).len(),
        };
        assert_eq!(n, g.node_count(), "{kernel}");
        let per_slot = (peak_bytes() - live) as f64 / slots;
        assert!(
            per_slot <= before,
            "{kernel} peaked {per_slot:.2} B a slot above the live heap, {before} before"
        );
    }
}
