//! Breadth-first search over the directed topology.
//!
//! All entry points route through the shared parallel frontier engine in
//! [`crate::frontier`] — dense slot-indexed state, morsel-parallel
//! expansion, direction-optimizing top-down/bottom-up switching — with
//! the pool's thread count and the default crossover. Results are
//! [`NodeValues`] columns on the graph's own id index; callers that want
//! other parameters, or the flat state itself, use
//! [`crate::frontier::FrontierEngine`] directly.

use crate::frontier::FrontierEngine;
use ringo_graph::{DirectedTopology, NodeId, NodeValues};

pub use ringo_graph::Direction;

/// BFS hop distances from `src` (the source has 0), in ascending slot
/// order. Unreachable nodes have no value; empty when `src` is not in the
/// graph.
pub fn bfs_distances<G: DirectedTopology>(g: &G, src: NodeId, dir: Direction) -> NodeValues<u32> {
    let mut sp = ringo_trace::span!("algo.bfs");
    sp.rows_in(g.node_count());
    let out = FrontierEngine::new(g, dir).distances(src);
    sp.rows_out(out.len());
    out
}

/// BFS tree from `src`: each reached node's parent id (the source is its
/// own parent). Unreachable nodes have no value; empty when `src` is
/// missing. Parents are deterministic at every thread count: among all
/// shortest-path predecessors, the one in the minimum slot wins.
pub fn bfs_tree<G: DirectedTopology>(g: &G, src: NodeId, dir: Direction) -> NodeValues<NodeId> {
    let mut sp = ringo_trace::span!("algo.bfs.tree");
    sp.rows_in(g.node_count());
    let out = FrontierEngine::new(g, dir).tree(src);
    sp.rows_out(out.len());
    out
}

/// Nodes in BFS visit order from `src` (the BFS "tree" order). Ties among
/// same-level nodes follow adjacency order, so this runs the engine's
/// sequential path regardless of the pool size.
pub fn bfs_order<G: DirectedTopology>(g: &G, src: NodeId, dir: Direction) -> Vec<NodeId> {
    let eng = FrontierEngine::with_params(g, dir, 1, 0, 0);
    match eng.run(src) {
        Some(state) => state
            .visited
            .iter()
            .map(|&s| g.slot_id(s as usize).expect("visited slot is live"))
            .collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    fn chain() -> DirectedGraph {
        let mut g = DirectedGraph::new();
        for i in 0..5 {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn distances_along_a_chain() {
        let g = chain();
        let d = bfs_distances(&g, 0, Direction::Out);
        for i in 0..=5 {
            assert_eq!(d.get(i), Some(&(i as u32)));
        }
    }

    #[test]
    fn direction_in_reverses_reachability() {
        let g = chain();
        let d = bfs_distances(&g, 5, Direction::Out);
        assert_eq!(d.len(), 1, "sink reaches only itself");
        let d = bfs_distances(&g, 5, Direction::In);
        assert_eq!(d.len(), 6);
        assert_eq!(d.get(0), Some(&5));
    }

    #[test]
    fn direction_both_ignores_orientation() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(3, 2);
        let d = bfs_distances(&g, 1, Direction::Both);
        assert_eq!(d.get(3), Some(&2));
    }

    #[test]
    fn missing_source_is_empty() {
        let g = chain();
        assert!(bfs_distances(&g, 99, Direction::Out).is_empty());
        assert!(bfs_order(&g, 99, Direction::Out).is_empty());
        assert!(bfs_tree(&g, 99, Direction::Out).is_empty());
    }

    #[test]
    fn bfs_order_levels() {
        let mut g = DirectedGraph::new();
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        let order = bfs_order(&g, 0, Direction::Out);
        assert_eq!(order[0], 0);
        assert_eq!(&order[1..3], &[1, 2]);
        assert_eq!(order[3], 3);
    }

    #[test]
    fn unreachable_nodes_absent() {
        let mut g = chain();
        g.add_node(100);
        let d = bfs_distances(&g, 0, Direction::Out);
        assert!(!d.contains(100));
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn tree_parents_are_shortest_path_predecessors() {
        let mut g = DirectedGraph::new();
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let t = bfs_tree(&g, 0, Direction::Out);
        assert_eq!(t.get(0), Some(&0), "source is its own parent");
        assert_eq!(t.get(1), Some(&0));
        assert_eq!(t.get(2), Some(&0));
        // 3 is reached via 1 and 2 at the same level; min slot (node 1,
        // inserted first) wins deterministically.
        assert_eq!(t.get(3), Some(&1));
    }
}
