//! Allocation discipline of a kernel result.
//!
//! A BFS probe used to end in an id-keyed `IntHashTable` of its answer
//! beside a parent array the run filled and nobody read — ≈46 B per slot
//! above the live heap for a probe that reaches most of the graph. It now
//! keeps a distance per slot during the run and hands that array over as
//! the value column: the result is the ids gathered once (8 B a reached
//! node), the compacted distances (4 B) and a slot → position array
//! (4 B a slot), and it looks ids up through the graph's own node side
//! rather than a copy of it. This test pins both in bytes on a warmed
//! `Ringo::bfs` — the call `bench_e2e`'s `lj_kernels` and `lj_churn`
//! make — and shows the sharing from the graph's side: while a result is
//! held, the graph's next `add_node` copies the slot ids it writes (8 B a
//! slot) but never the rank's bucket array; once the result is dropped,
//! it copies nothing.
//!
//! Kept in its own test binary, and the tests take `SERIAL`, so nothing
//! else moves the process-global allocation counters mid-measurement.

use ringo::graph::DirectedTopology;
use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{DirectedGraph, Direction, NodeId, Ringo};
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

/// An LJ-like graph and a source in its giant component.
fn lj_graph(ringo: &Ringo) -> (DirectedGraph, NodeId) {
    let g = ringo
        .to_graph(&ringo.generate_lj_like(0.2, 5), "src", "dst")
        .unwrap();
    let hub = g
        .node_ids()
        .max_by_key(|&v| (g.out_degree(v), std::cmp::Reverse(v)))
        .unwrap();
    (g, hub)
}

#[test]
fn warmed_bfs_peaks_below_24_bytes_a_slot_and_holds_only_its_columns() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let ringo = Ringo::with_threads(2);
    let (g, src) = lj_graph(&ringo);
    let slots = g.n_slots();
    // Warm: the op-log and counters registered.
    drop(ringo.bfs(&g, src, Direction::Out));

    let live = current_bytes();
    reset_peak();
    let dist = ringo.bfs(&g, src, Direction::Out);
    let peak = peak_bytes() - live;
    let held = current_bytes() - live;
    assert!(
        dist.len() > slots / 2,
        "the probe reaches most of the graph"
    );

    // Measured ≈15 B a slot (the parent commit: ≈38): the run's distances
    // and visit log (4 + 4), then distances, positions and ids (4 + 4 + 8
    // a reached node) once the log is gone.
    assert!(
        peak < 24 * slots,
        "Ringo::bfs peaked {peak} B above the live heap, {} B a slot over {slots} slots",
        peak / slots
    );
    // What stays is the result's own columns — 8 B a reached node's id,
    // 4 B a slot for the values (the run's distance array, compacted in
    // place), 4 B a slot for positions — plus an op-log record, not a
    // second id index: a copy would add ≥ 16 B a node.
    let columns = 8 * dist.len() + 8 * slots;
    assert!(
        held <= columns + 4096,
        "the result holds {held} B, its columns {columns} B"
    );
}

#[test]
fn a_held_result_shares_the_index_until_the_graph_adds_a_node() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let ringo = Ringo::with_threads(2);
    let (mut g, src) = lj_graph(&ringo);
    // The bulk graph's slot ids are the rank's; the first add gives the
    // graph ids of its own and an overlay, so later adds measure a copy.
    g.add_node(-1);
    drop(ringo.bfs(&g, src, Direction::Out));
    let slots = g.n_slots();

    let dist = ringo.bfs(&g, src, Direction::Out);
    let before = current_bytes();
    g.add_node(-2);
    let copied = current_bytes() - before;
    // The slot ids (8 B a slot, room for a few more) and the overlay of one
    // added node; the buckets (≥ 4 B a node) stay shared.
    assert!(
        copied >= 8 * slots && copied <= 8 * slots + 4096,
        "add_node beside a held result allocated {copied} B; its slot ids are {} B",
        8 * slots
    );
    assert_eq!(dist.get(-2), None, "the result answers for its own version");
    assert_eq!(dist.get(-1), None, "the result kept no value for it");
    assert_eq!(dist.get(src), Some(&0));
    drop(dist);

    // Held once again: the copy had room for the next id, and nothing
    // else is copied.
    let before = current_bytes();
    g.add_node(-3);
    let grew = current_bytes() - before;
    assert!(
        grew < 4096,
        "with no result held add_node allocated {grew} B; the node side was copied"
    );
}
