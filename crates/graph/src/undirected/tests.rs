//! Unit tests of [`UndirectedGraph`]: one row a node, self-loops stored
//! once, and no in-rows of its own.

use crate::{DirectedTopology, NodeId, UndirectedGraph};
use std::sync::Arc;

#[test]
fn add_edge_is_symmetric() {
    let mut g = UndirectedGraph::new();
    assert!(g.add_edge(1, 2));
    assert!(!g.add_edge(2, 1), "same undirected edge");
    assert_eq!(g.edge_count(), 1);
    assert!(g.has_edge(1, 2));
    assert!(g.has_edge(2, 1));
    assert_eq!(g.nbrs(1), &[2]);
    assert_eq!(g.nbrs(2), &[1]);
}

#[test]
fn self_loop_stored_once() {
    let mut g = UndirectedGraph::new();
    assert!(g.add_edge(3, 3));
    assert_eq!(g.edge_count(), 1);
    assert_eq!(g.degree(3), Some(1));
    assert_eq!(DirectedTopology::edge_count(&g), 1, "one arc");
    assert!(g.del_edge(3, 3));
    assert_eq!(g.edge_count(), 0);
    assert_eq!(DirectedTopology::edge_count(&g), 0);
}

#[test]
fn del_edge_both_directions() {
    let mut g = UndirectedGraph::new();
    g.add_edge(1, 2);
    assert!(g.del_edge(2, 1), "delete by reversed endpoints");
    assert!(!g.has_edge(1, 2));
    assert_eq!(g.edge_count(), 0);
}

#[test]
fn del_node_updates_neighbors_and_count() {
    let mut g = UndirectedGraph::new();
    g.add_edge(1, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    g.add_edge(1, 1);
    assert!(g.del_node(1));
    assert_eq!(g.node_count(), 2);
    assert_eq!(g.edge_count(), 1);
    assert_eq!(DirectedTopology::edge_count(&g), 2, "the loop left too");
    assert_eq!(g.nbrs(2), &[3]);
}

#[test]
fn edges_iterated_once_each() {
    let mut g = UndirectedGraph::new();
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 3);
    let mut e: Vec<_> = g.edges().collect();
    e.sort_unstable();
    assert_eq!(e, vec![(1, 2), (2, 3), (3, 3)]);
}

#[test]
fn from_parts_counts_edges_with_self_loops() {
    let parts = vec![(1, vec![1, 2]), (2, vec![1])];
    let g = UndirectedGraph::from_parts(parts);
    assert_eq!(g.edge_count(), 2, "loop 1-1 plus edge 1-2");
    assert_eq!(DirectedTopology::edge_count(&g), 3, "arcs");
    assert!(g.has_edge(1, 1));
    assert!(g.has_edge(2, 1));
}

#[test]
fn from_sorted_parts_matches_from_parts() {
    // Same topology as `from_parts_counts_edges_with_self_loops`,
    // in slab form: node 1 (slot 0) -> [0, 1], node 2 (slot 1) -> [0].
    let g = UndirectedGraph::from_sorted_parts(vec![1, 2], &[0, 2, 3], Arc::from([0, 1, 0]));
    assert_eq!(g.node_count(), 2);
    assert_eq!(g.edge_count(), 2, "loop 1-1 plus edge 1-2");
    assert!(g.has_edge(1, 1));
    assert!(g.has_edge(2, 1));
    assert_eq!(g.nbrs(1), &[1, 2]);
    let empty = UndirectedGraph::from_sorted_parts(Vec::new(), &[0], Arc::from([]));
    assert!(empty.is_empty());
}

#[test]
fn degree_and_missing_nodes() {
    let mut g = UndirectedGraph::new();
    g.add_edge(1, 2);
    assert_eq!(g.degree(1), Some(1));
    assert_eq!(g.degree(99), None);
    assert!(g.nbrs(99).is_empty());
    assert!(!g.del_edge(5, 6));
    assert!(!g.del_node(99));
}

#[test]
fn compact_preserves_adjacency_and_reclaims() {
    // Path 0-1-2-...-19 in slab form: node k (slot k) neighbors
    // {k-1, k+1}.
    let n = 20u32;
    let ids: Vec<NodeId> = (0..i64::from(n)).collect();
    let mut off = vec![0usize];
    let mut slab = Vec::new();
    for k in 0..n {
        if k > 0 {
            slab.push(k - 1);
        }
        if k + 1 < n {
            slab.push(k + 1);
        }
        off.push(slab.len());
    }
    let mut g = UndirectedGraph::from_sorted_parts(ids, &off, slab.into());
    for k in 0..8 {
        g.del_edge(k, k + 1);
    }
    assert!(g.adjacency_stats().dead_slab_bytes() > 0);
    let want: Vec<(NodeId, Vec<NodeId>)> =
        g.node_ids().map(|id| (id, g.nbrs(id).collect())).collect();
    let stats = g.compact();
    assert_eq!(stats.after.owned_lists, 0);
    assert_eq!(stats.after.dead_slab_bytes(), 0);
    assert!(stats.reclaimed_bytes() > 0);
    for (id, nbrs) in want {
        assert_eq!(g.nbrs(id), nbrs);
    }
    assert!(g.add_edge(0, 19));
}

#[test]
fn i64_min_is_a_node_like_any_other() {
    let mut g = UndirectedGraph::new();
    assert!(g.add_node(i64::MIN));
    assert!(g.add_edge(i64::MIN, i64::MIN));
    assert!(g.add_edge(i64::MIN, 7));
    assert_eq!(g.nbrs(7), &[i64::MIN]);
    assert_eq!(g.edges().count(), 2);
    assert!(g.del_node(i64::MIN));
    assert_eq!((g.node_count(), g.edge_count()), (1, 0));
}

#[test]
fn adjacency_stats_count_one_row_a_node() {
    let ids: Vec<NodeId> = (0..4).collect();
    // 0-1, 1-2, 2-2, and node 3 alone.
    let g = UndirectedGraph::from_sorted_parts(ids, &[0, 1, 3, 5, 5], Arc::from([1, 0, 2, 1, 2]));
    let stats = g.adjacency_stats();
    assert_eq!(stats.slab_lists, g.node_count(), "no in-side to walk");
    assert_eq!((stats.owned_lists, stats.dead_slab_bytes()), (0, 0));
    assert_eq!(stats.total_slab_bytes, 5 * 4);
}
