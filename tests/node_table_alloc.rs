//! Allocation discipline of the node side and the rows: a bulk-built
//! graph is its rank's bucket array, 16 bytes a slot (its id and one
//! 4-byte offset per orientation; 12 undirected) and 4 bytes a stored
//! neighbour, with no hash table; a
//! clone allocates nothing; a version's first edit pays one 8-byte
//! overlay entry a slot for each orientation it touches, plus the lists
//! it edits; a later edit pays for its lists alone; and `mem_size()`
//! reports what the graph holds, edited or not; a compacted undirected
//! graph is one orientation's rows again. `bench_e2e`'s `lj_churn`
//! keeps the base graph and two versions live at its peak, so a clone
//! that copied a node table again must fail here, in tier 1.
//!
//! Kept in its own test binary, and the tests take `SERIAL`, so nothing
//! else moves the process-global allocation counters mid-measurement.

use ringo::convert::{table_to_graph, table_to_undirected};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::trace::mem::{alloc_count, current_bytes, TrackingAllocator};
use ringo::{DirectedGraph, Direction, NodeId, Table};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What an `Arc<Vec<_>>` costs beside its buffer: two counts and the
/// `Vec` header. A list of its own is one; so is an overlay.
const ARC_VEC: usize = 16 + 24;

/// One overlay entry: an `Option<Arc<Vec<u32>>>`.
const OVERLAY: usize = 8;

fn table(scale: u32, edges: usize) -> Table {
    edges_to_table(&rmat(&RmatConfig {
        scale,
        edges,
        seed: 17,
        ..Default::default()
    }))
}

/// Bytes and allocations `f` leaves behind.
fn retained<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (bytes, count) = (current_bytes(), alloc_count());
    let out = f();
    (out, current_bytes() - bytes, alloc_count() - count)
}

/// Bytes of a list of its own first copied from a row of `len`: room for
/// one more, since an edit follows.
fn copied_list(len: usize) -> usize {
    ARC_VEC + (len + 1) * 4
}

/// Two nodes of `g` with no edge from the first to the second, neither
/// row edited yet, and not among `skip`.
fn absent_edge(g: &DirectedGraph, skip: &[NodeId]) -> (NodeId, NodeId) {
    let ids: Vec<NodeId> = g.node_ids().filter(|id| !skip.contains(id)).collect();
    for &s in &ids {
        for &d in ids.iter().rev() {
            if s != d && !g.has_edge(s, d) {
                return (s, d);
            }
        }
    }
    panic!("a complete graph")
}

/// Bytes of the bucket array a rank keeps over the ascending `ids`: one
/// `u32` first position a bucket plus the closing one, with no more
/// buckets than the power of two at or above the node count.
fn bucket_bytes(ids: &[NodeId]) -> usize {
    let (n, span) = (
        ids.len() as u64,
        ids[ids.len() - 1].wrapping_sub(ids[0]) as u64,
    );
    let k = n.next_power_of_two().trailing_zeros();
    let shift = (u64::BITS - span.leading_zeros()).saturating_sub(k);
    let buckets = (span >> shift) as usize + 1;
    assert!(buckets as u64 <= 2 * n, "under two buckets a node");
    4 * (buckets + 1)
}

#[test]
fn a_bulk_graph_is_its_buckets_sixteen_bytes_a_slot_and_four_a_neighbour() {
    let _serial = serial();
    let t = table(14, 200_000);
    let g = table_to_graph(&t, "src", "dst").unwrap();
    let u = table_to_undirected(&t, "src", "dst").unwrap();
    let (n, stored) = (g.n_slots(), g.total_degree(Direction::Both) as usize);
    let ids: Vec<NodeId> = g.node_ids().collect();
    // The buckets, the id, an offset per orientation, and each
    // orientation's closing offset; no vacancy bitmap until a node is
    // deleted, and no hash table until one is added.
    let want = bucket_bytes(&ids) + 16 * n + 2 * 4 + 4 * stored;
    assert_eq!(g.mem_size(), want, "directed, {n} slots");
    let (n, stored) = (u.n_slots(), u.total_degree(Direction::Both) as usize);
    let ids: Vec<NodeId> = u.node_ids().collect();
    let want = bucket_bytes(&ids) + 12 * n + 4 + 4 * stored;
    assert_eq!(u.mem_size(), want, "undirected, {n} slots");
}

#[test]
fn a_compacted_undirected_graph_is_again_its_buckets_twelve_bytes_a_slot_and_four_a_neighbour() {
    let _serial = serial();
    let t = table(12, 40_000);
    let mut u = table_to_undirected(&t, "src", "dst").unwrap();
    let ids: Vec<NodeId> = u.node_ids().collect();
    // Edits among existing nodes only: every second edge out, a few in.
    let gone: Vec<(NodeId, NodeId)> = u.edges().step_by(2).collect();
    for &(a, b) in &gone {
        assert!(u.del_edge(a, b));
    }
    for (&a, &b) in ids.iter().zip(ids.iter().rev()).take(100) {
        u.add_edge(a, b);
    }
    assert!(u.adjacency_stats().dead_slab_bytes() > 0);
    u.compact();
    // One orientation's offsets and slab again: a compaction that packed
    // the absent in-side would add 4 B a slot.
    let (n, stored) = (u.n_slots(), u.total_degree(Direction::Both) as usize);
    let want = bucket_bytes(&ids) + 12 * n + 4 + 4 * stored;
    assert_eq!(u.mem_size(), want, "undirected, compacted, {n} slots");
}

#[test]
fn a_clone_allocates_nothing_bulk_built_or_edited() {
    let _serial = serial();
    let t = table(12, 40_000);
    let mut g = table_to_graph(&t, "src", "dst").unwrap();
    let mut u = table_to_undirected(&t, "src", "dst").unwrap();
    for edited in [false, true] {
        let (_, bytes, count) = retained(|| g.clone());
        assert_eq!((bytes, count), (0, 0), "directed clone, edited: {edited}");
        let (_, bytes, count) = retained(|| u.clone());
        assert_eq!((bytes, count), (0, 0), "undirected clone, edited: {edited}");
        let edges: Vec<(NodeId, NodeId)> = g.edges().step_by(3).collect();
        for &(s, d) in &edges {
            g.del_edge(s, d);
            u.del_edge(s, d);
        }
        let id = g.node_ids().nth(5).expect("a node");
        assert!(g.del_node(id) && u.del_node(id));
    }
}

#[test]
fn a_version_pays_an_overlay_an_orientation_it_edits_then_its_lists_alone() {
    let _serial = serial();
    let t = table(13, 80_000);
    let g = table_to_graph(&t, "src", "dst").unwrap();
    let u = table_to_undirected(&t, "src", "dst").unwrap();

    // Directed: an edge touches both orientations.
    let n = g.n_slots();
    let (s, d) = absent_edge(&g, &[]);
    let lists = copied_list(g.out_row(g.slot_of(s).unwrap()).len())
        + copied_list(g.in_row(g.slot_of(d).unwrap()).len());
    let (mut next, bytes, _) = retained(|| {
        let mut next = g.clone();
        assert!(next.add_edge(s, d));
        next
    });
    let overlays = 2 * (ARC_VEC + OVERLAY * n);
    assert!(
        bytes <= overlays + lists,
        "clone + first edit kept {bytes} B: overlays {overlays} + lists {lists}, {n} slots"
    );
    // A second edit, of rows no edit touched yet: its lists alone, and
    // `mem_size` sees every byte of them.
    let (s2, d2) = absent_edge(&next, &[s, d]);
    let lists =
        copied_list(next.out_degree(s2).unwrap()) + copied_list(next.in_degree(d2).unwrap());
    let before = next.mem_size();
    let (_, bytes, count) = retained(|| assert!(next.add_edge(s2, d2)));
    assert_eq!(
        (bytes, count),
        (lists, 4),
        "second edit: two lists, two allocations each"
    );
    assert_eq!(
        next.mem_size() - before,
        bytes,
        "mem_size charges the lists in full"
    );

    // Undirected: one orientation.
    let n = u.n_slots();
    let ids: Vec<NodeId> = u.node_ids().collect();
    let (a, b) = ids
        .iter()
        .flat_map(|&x| ids.iter().rev().map(move |&y| (x, y)))
        .find(|&(x, y)| x != y && !u.has_edge(x, y))
        .expect("a non-edge");
    let lists = copied_list(u.degree(a).unwrap()) + copied_list(u.degree(b).unwrap());
    let (_, bytes, _) = retained(|| {
        let mut next = u.clone();
        assert!(next.add_edge(a, b));
        next
    });
    let overlay = ARC_VEC + OVERLAY * n;
    assert!(
        bytes <= overlay + lists,
        "undirected clone + first edit kept {bytes} B: overlay {overlay} + lists {lists}"
    );
}

#[test]
fn mem_size_is_the_heap_a_graph_holds_bulk_built_and_after_edits() {
    let _serial = serial();
    let t = table(14, 200_000);
    // A first conversion starts the worker pool and registers the spans'
    // histograms, which the process keeps.
    drop(table_to_undirected(&t, "src", "dst").unwrap());
    let within = |what: &str, mem: usize, held: usize| {
        let gap = mem.abs_diff(held) as f64 / held as f64;
        assert!(gap < 0.02, "{what}: mem_size {mem} B, heap {held} B");
    };

    let (mut g, built, _) = retained(|| table_to_graph(&t, "src", "dst").unwrap());
    within("directed, bulk", g.mem_size(), built);
    let halve: Vec<(NodeId, NodeId)> = g.edges().step_by(2).collect();
    let (_, edited, _) = retained(|| {
        for &(s, d) in &halve {
            assert!(g.del_edge(s, d));
        }
    });
    let held = built + edited;
    within("directed, every second edge deleted", g.mem_size(), held);

    let (mut u, built, _) = retained(|| table_to_undirected(&t, "src", "dst").unwrap());
    within("undirected, bulk", u.mem_size(), built);
    let halve: Vec<(NodeId, NodeId)> = u.edges().step_by(2).collect();
    let (_, edited, _) = retained(|| {
        for &(a, b) in &halve {
            assert!(u.del_edge(a, b));
        }
        let id = u.node_ids().next().expect("a node");
        assert!(u.del_node(id));
    });
    within("undirected, edited", u.mem_size(), built + edited);
}
