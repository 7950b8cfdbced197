//! Allocation discipline of graph versions: a clone is the node table
//! plus a refcount bump per list and one for the id index, and a version
//! pays only for the lists it edits. `bench_e2e`'s `lj_churn` keeps two
//! versions of a 2M-edge graph live at its peak, so a clone that copied
//! lists or the index again must fail here, in tier 1.
//!
//! Kept in its own test binary, and the tests take `SERIAL`, so nothing
//! else moves the process-global allocation counters mid-measurement.

use ringo::gen::{rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::trace::mem::{alloc_count, current_bytes, TrackingAllocator};
use ringo::{DirectedGraph, NodeId, UndirectedGraph};
use ringo_rng::Rng64;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Upper bound on one slot of a directed graph's node table: the id
/// behind its `Option` and two 24-byte list handles.
const CELL: usize = 64;

/// What `Arc<Vec<u32>>` adds to a list of its own: two counts and the
/// `Vec` header.
const SHARED_HEADER: usize = 16 + 24;

fn rmat_edges(seed: u64) -> Vec<(NodeId, NodeId)> {
    rmat(&RmatConfig {
        scale: 12,
        edges: 40_000,
        seed,
        ..Default::default()
    })
}

fn edited(edges: &[(NodeId, NodeId)]) -> DirectedGraph {
    let mut g = DirectedGraph::new();
    for &(s, d) in edges {
        g.add_edge(s, d);
    }
    g
}

/// Bytes and allocations `f` leaves behind.
fn retained<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (bytes, count) = (current_bytes(), alloc_count());
    let out = f();
    (out, current_bytes() - bytes, alloc_count() - count)
}

#[test]
fn a_clone_of_a_graph_of_owned_lists_allocates_its_node_table_only() {
    let _serial = serial();
    let g = edited(&rmat_edges(1));
    let stats = g.adjacency_stats();
    assert_eq!(stats.slab_lists + stats.owned_lists, 2 * g.node_count());
    assert!(stats.owned_lists > 5_000 && stats.owned_bytes > 300_000);
    let (copy, bytes, count) = retained(|| g.clone());
    assert!(
        bytes <= g.n_slots() * CELL + 1024,
        "clone kept {bytes} B for {} slots; the lists alone are {} B",
        g.n_slots(),
        stats.owned_bytes
    );
    assert!(
        count <= 4,
        "clone made {count} allocations, not one per list"
    );
    assert_eq!(copy.adjacency_stats().shared_lists, stats.owned_lists);

    let mut u = UndirectedGraph::new();
    for (a, b) in rmat_edges(2) {
        u.add_edge(a, b);
    }
    let (_, bytes, count) = retained(|| u.clone());
    assert!(
        bytes <= u.n_slots() * CELL + 1024,
        "undirected clone kept {bytes} B"
    );
    assert!(count <= 4, "undirected clone made {count} allocations");
}

#[test]
fn a_successor_retains_its_node_table_and_the_lists_it_edited() {
    let _serial = serial();
    let g = edited(&rmat_edges(3));
    let ids: Vec<NodeId> = g.node_ids().collect();
    let mut rng = Rng64::new(4);
    let (next, bytes, _) = retained(|| {
        let mut next = g.clone();
        let mut edits = 0;
        while edits < 200 {
            let (s, d) = (ids[rng.below(ids.len())], ids[rng.below(ids.len())]);
            edits += usize::from(next.add_edge(s, d));
        }
        next
    });
    // Every list the successor edited is its own; it shares the rest.
    let own: BTreeSet<(NodeId, bool)> = g
        .edges()
        .chain(next.edges())
        .filter(|&(s, d)| g.has_edge(s, d) != next.has_edge(s, d))
        .flat_map(|(s, d)| [(s, true), (d, false)])
        .collect();
    let lists: usize = own
        .iter()
        .map(|&(id, out)| {
            let len = if out {
                next.out_nbrs(id)
            } else {
                next.in_nbrs(id)
            }
            .len();
            // A first copy holds len + 1; a second insert may double it.
            SHARED_HEADER + 2 * (len + 1) * std::mem::size_of::<u32>()
        })
        .sum();
    let table = g.n_slots() * CELL;
    assert!(
        bytes <= table + lists + 1024,
        "successor retains {bytes} B: node table {table} + {} edited lists {lists}",
        own.len()
    );
    let after = next.adjacency_stats();
    assert_eq!(after.owned_lists - after.shared_lists, own.len());
    assert_eq!(
        g.edge_count() + 200,
        next.edge_count(),
        "the parent is untouched"
    );
}

#[test]
fn an_edit_built_graph_grows_its_lists_as_plain_vectors_do() {
    let _serial = serial();
    let edges = rmat_edges(5);
    let ids: BTreeSet<NodeId> = edges.iter().flat_map(|&(s, d)| [s, d]).collect();
    // Nodes first: empty lists allocate nothing, so this is the node
    // table and the index.
    let (mut g, bytes, _) = retained(|| {
        let mut g = DirectedGraph::with_capacity(ids.len());
        for &id in &ids {
            g.add_node(id);
        }
        g
    });
    assert!(
        bytes <= ids.len() * (CELL + 48),
        "{bytes} B for {} nodes",
        ids.len()
    );

    // The parent's storage, replayed: a `Vec` of neighbour slots per list,
    // edited by the same binary-search inserts.
    let slot: HashMap<NodeId, u32> = ids.iter().zip(0..).map(|(&id, k)| (id, k)).collect();
    let mut plain: Vec<[Vec<u32>; 2]> = vec![Default::default(); ids.len()];
    let insert = |list: &mut Vec<u32>, x: u32| {
        if let Err(at) = list.binary_search(&x) {
            list.insert(at, x);
        }
    };
    let (_, plain_bytes, plain_count) = retained(|| {
        for &(s, d) in &edges {
            insert(&mut plain[slot[&s] as usize][0], slot[&d]);
            insert(&mut plain[slot[&d] as usize][1], slot[&s]);
        }
    });
    let (_, bytes, count) = retained(|| {
        for &(s, d) in &edges {
            g.add_edge(s, d);
        }
    });
    let lists = plain.iter().flatten().filter(|l| !l.is_empty()).count();
    assert_eq!(g.adjacency_stats().owned_lists, lists);
    // Buffers no larger than the plain vectors' (a first edit holds
    // len + 1, not 4); the addition is one shared header per list.
    assert!(
        bytes <= plain_bytes + lists * SHARED_HEADER,
        "{bytes} B against {plain_bytes} B of plain vectors for {lists} lists"
    );
    // Growth is amortized, never a copy per edit: at most the header and
    // one extra step (capacity 1, then 4) per list.
    assert!(
        count <= plain_count + 2 * lists,
        "{count} allocations against {plain_count} for {lists} lists"
    );
}
