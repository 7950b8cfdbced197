//! Allocation discipline of the frontier engine.
//!
//! The old BFS allocated a boxed neighbor iterator per visited node and
//! grew a hash table of distances; the frontier engine walks flat
//! slot-indexed arrays and monomorphized adjacency slices, so a warmed-up
//! traversal performs **zero allocations per visited node**. This test
//! pins that: a 100k-node sweep over a reused [`FrontierState`] must stay
//! below a small constant allocation count (a single alloc-per-visit
//! regression would exceed it by five orders of magnitude).
//!
//! The engine also owns no CSR: it walks the graph's own rows of
//! neighbour slots, so a `bfs_distances` on a graph must not allocate
//! anything the size of a copy of them — pinned in *bytes*, since a CSR
//! is a handful of huge allocations a count bound would wave through.
//! Nor does it keep a parent array or end in an id-keyed hash table: the
//! whole probe, result included, stays under 20 B a slot.
//!
//! Kept in its own test binary, and the two tests take `SERIAL`, so
//! nothing else moves the process-global allocation counters
//! mid-measurement.

use ringo::algo::{bfs_distances, FrontierEngine, FrontierState};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::trace::mem::{alloc_count, current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{DirectedGraph, Direction};
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn second_bfs_on_the_same_graph_allocates_no_csr() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Dense on purpose: 200k edges over 4k nodes, so a copy of the rows
    // (~1.6 MB) dwarfs the per-run state and the distance table.
    let edges = rmat(&RmatConfig {
        scale: 12,
        edges: 200_000,
        seed: 5,
        ..Default::default()
    });
    let g = ringo::convert::table_to_graph(&edges_to_table(&edges), "src", "dst").unwrap();
    let src = g.node_ids().next().unwrap();

    let first = bfs_distances(&g, src, Direction::Out);
    // What a translated copy of both orientations' rows would take.
    let csr_bytes = 2 * 4 * g.edge_count();
    assert!(csr_bytes > 1_000_000);

    let live = current_bytes();
    reset_peak();
    let second = bfs_distances(&g, src, Direction::Out);
    let transient = peak_bytes() - live;
    assert_eq!(second.len(), first.len());
    // Measured 15.5 B a slot: distances and the visit log during the run,
    // then distances, positions and ids. The parent commit's parent array
    // and hash table peaked at 46.9; a rebuilt CSR is ≈300 here.
    let slots = g.n_slots();
    assert!(
        transient < 20 * slots,
        "second BFS peaked {transient} B above the live heap over {slots} slots; \
         a rebuilt CSR would be {csr_bytes} B"
    );
}

#[test]
fn warmed_traversal_allocates_constant_not_per_visit() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const N: i64 = 100_000;
    // Star-of-paths: one hub fanning out to 100 chains of 1000 nodes —
    // exercises both a wide level and deep narrow ones.
    let mut g = DirectedGraph::with_capacity(N as usize);
    for c in 0..100i64 {
        let base = 1 + c * 1_000;
        g.add_edge(0, base);
        for i in 0..999 {
            g.add_edge(base + i, base + i + 1);
        }
    }
    let n_visited = g.node_count();

    let eng = FrontierEngine::with_params(&g, Direction::Out, 1, 0, 0);
    let mut state = FrontierState::new(g.n_slots());
    let src = DirectedTopology::slot_of(&g, 0).unwrap();

    // Warm up: grows `visited` / `level_starts` to their high-water
    // capacity, which `reset` retains.
    for _ in 0..3 {
        eng.run_into(src, &mut state);
        assert_eq!(state.visited.len(), n_visited);
        state.reset();
    }

    let mut best = usize::MAX;
    for _ in 0..5 {
        let before = alloc_count();
        eng.run_into(src, &mut state);
        let delta = alloc_count() - before;
        assert_eq!(state.visited.len(), n_visited);
        state.reset();
        best = best.min(delta);
    }
    // Measured 0: the visit log and level offsets keep their capacity.
    assert!(
        best <= 2,
        "warmed BFS allocated {best} times for {n_visited} visits; \
         expected the flat-state engine's small constant"
    );
}
