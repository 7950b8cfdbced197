//! Allocation discipline of weighted graphs: a `WeightedDigraph` is a
//! `DirectedGraph` plus one weight row per out-row, stored like the rows
//! themselves — a shared slab of 8 B a weight, 4 B of offsets a slot and a
//! per-version overlay of edited rows. So a clone and the unweighted
//! graph allocate nothing, the conversion holds and peaks at what
//! `to_graph` does plus the weight slab and its offsets, and an edit costs
//! the directed graph's edit plus the weights' overlay and the one weight
//! row it copies.
//!
//! Kept in its own test binary, and the tests take `SERIAL`, so nothing
//! else moves the process-global allocation counters mid-measurement.

use ringo::convert::{table_to_graph, table_to_weighted_graph};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::trace::mem::{alloc_count, current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{Table, WeightedDigraph};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bytes one stored weight costs.
const WEIGHT: usize = 8;

/// What an `Arc<Vec<_>>` adds to its buffer — a weight row of its own,
/// or an overlay: two counts and the `Vec` header.
const SHARED_HEADER: usize = 16 + 24;

/// 200k R-MAT rows over 16k ids with an int weight column, at 2 threads.
fn rmat_table() -> Table {
    let edges = rmat(&RmatConfig {
        scale: 14,
        edges: 200_000,
        seed: 23,
        ..Default::default()
    });
    let mut t = edges_to_table(&edges);
    t.add_int_column("n", (0..edges.len() as i64).map(|i| i % 7).collect())
        .unwrap();
    t.set_threads(2);
    t
}

fn weighted(t: &Table) -> WeightedDigraph {
    table_to_weighted_graph(t, "src", "dst", Some("n")).unwrap()
}

/// Bytes and allocations `f` leaves behind.
fn retained<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (bytes, count) = (current_bytes(), alloc_count());
    let out = f();
    (out, current_bytes() - bytes, alloc_count() - count)
}

/// How far the heap rose above where it stood while `f` ran.
fn peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let live = current_bytes();
    reset_peak();
    let out = f();
    (out, peak_bytes() - live)
}

/// The conversion once, so the spans and counters it registers (which
/// the process keeps) are not charged to a measurement.
fn warm(t: &Table) {
    drop(table_to_graph(t, "src", "dst").unwrap());
    drop(weighted(t));
}

#[test]
fn a_clone_and_the_unweighted_graph_allocate_nothing() {
    let _serial = serial();
    let t = rmat_table();
    let mut g = weighted(&t);
    for round in [0, 1] {
        let (copy, bytes, count) = retained(|| g.clone());
        assert_eq!((bytes, count), (0, 0), "clone, round {round}");
        let (plain, bytes, count) = retained(|| g.to_unweighted());
        assert_eq!((bytes, count), (0, 0), "to_unweighted, round {round}");
        assert_eq!(plain.edge_count(), copy.edge_count());
        // Round 1 clones a graph with edited rows and overlays.
        for id in 0..50 {
            g.add_edge(id, id + 1, 0.5);
        }
    }
}

#[test]
fn the_conversion_peaks_at_most_a_weight_slab_above_to_graph() {
    let _serial = serial();
    let t = rmat_table();
    warm(&t);
    let (g, graph_peak) = peak(|| table_to_graph(&t, "src", "dst").unwrap());
    let (edges, slots) = (g.edge_count(), g.n_slots());
    drop(g);
    let (w, weighted_peak) = peak(|| weighted(&t));
    assert_eq!(w.edge_count(), edges);
    let bound = graph_peak + edges * WEIGHT + slots * 8 + (64 << 10);
    assert!(
        weighted_peak <= bound,
        "table_to_weighted_graph peaked {weighted_peak} B; to_graph peaked {graph_peak} B, \
         and {edges} weights and {slots} offsets allow {bound} B"
    );
}

#[test]
fn the_converted_graph_holds_a_directed_graph_and_its_weights() {
    let _serial = serial();
    let t = rmat_table();
    warm(&t);
    let directed = table_to_graph(&t, "src", "dst").unwrap();
    let (edges, slots) = (directed.edge_count(), directed.n_slots());
    let bound = directed.mem_size() + edges * WEIGHT + slots * 4 + 4096;
    let (w, held, _) = retained(|| weighted(&t));
    assert!(
        held <= bound,
        "the weighted graph holds {held} B, over {bound} B"
    );
    assert!(
        w.mem_size() <= bound,
        "mem_size {} B over {bound} B",
        w.mem_size()
    );
    assert!(
        held.abs_diff(w.mem_size()) <= held / 50,
        "mem_size {} B is not within 2% of the {held} B held",
        w.mem_size()
    );
}

#[test]
fn an_edit_costs_the_directed_edit_plus_the_weight_overlay_and_row() {
    let _serial = serial();
    let t = rmat_table();
    let g = weighted(&t);
    // The hub's out-row is the longest copy an edit can make.
    let hub = (0..g.n_slots())
        .max_by_key(|&s| g.out_row(s).len())
        .unwrap();
    let len = g.out_row(hub).len();
    let src = g.slot_id(hub).unwrap();
    let dst = g.node_ids().find(|&d| g.weight(src, d).is_none()).unwrap();
    let old = g.node_ids().find(|&d| g.weight(src, d).is_some()).unwrap();

    let mut plain = g.to_unweighted();
    let (_, directed, _) = retained(|| plain.add_edge(src, dst));
    let mut w = g.clone();
    let (_, bytes, _) = retained(|| w.add_edge(src, dst, 1.0));
    // The overlay: one entry a slot in a vector of this version's own.
    let overlay = SHARED_HEADER + g.n_slots() * 8;
    let row = SHARED_HEADER + (len + 1) * WEIGHT;
    assert!(
        bytes >= directed && bytes <= directed + overlay + row,
        "a new edge kept {bytes} B; the directed edit kept {directed} B, the weight \
         overlay and a {len}-weight row allow {} B more",
        overlay + row
    );

    // Adding onto an edge the graph has copies the weight row alone.
    let mut w = g.clone();
    let (_, bytes, _) = retained(|| w.add_edge(src, old, 1.0));
    assert!(bytes <= overlay + row, "accumulating kept {bytes} B");
    assert_eq!(w.edge_count(), g.edge_count());
}
