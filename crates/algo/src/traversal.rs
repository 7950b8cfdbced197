//! Depth-first traversal utilities: DFS order, topological sort, cycle
//! detection.

use crate::frontier::as_atomic;
use ringo_concurrent::{num_threads, parallel_map_morsels};
use ringo_graph::{DirectedTopology, Direction, NodeId};
use std::sync::atomic::Ordering;

/// Nodes in iterative depth-first preorder from `src`, following
/// out-edges. Neighbors are visited in adjacency (slot) order.
pub fn dfs_order<G: DirectedTopology>(g: &G, src: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    let src_slot = match g.slot_of(src) {
        Some(s) => s,
        None => return order,
    };
    let mut visited = vec![false; g.n_slots()];
    // Stack holds each open node's out-row, the part not yet walked.
    let mut stack: Vec<&[u32]> = vec![g.out_row(src_slot)];
    visited[src_slot] = true;
    order.push(src);
    while let Some(rest) = stack.last_mut() {
        let Some((&next, tail)) = rest.split_first() else {
            stack.pop();
            continue;
        };
        *rest = tail;
        let ns = next as usize;
        if !visited[ns] {
            visited[ns] = true;
            order.push(g.slot_id(ns).expect("a row names live slots"));
            stack.push(g.out_row(ns));
        }
    }
    order
}

/// Frontiers below this size are relaxed inline even when the pool has
/// workers — matching the frontier engine's small-level fast path.
const PAR_MIN_FRONTIER: usize = 256;

/// Topological order of the whole graph, or `None` if it contains a
/// directed cycle. Level-synchronous Kahn's algorithm in the style of the
/// frontier engine: each round emits every node whose in-degree has
/// dropped to zero, and large rounds relax their out-edges in parallel
/// morsels (claims via an atomic decrement — the worker that takes the
/// last incoming edge owns the node). Ties are resolved by slot order
/// within each level, so the result is deterministic at every thread
/// count.
pub fn topological_sort<G: DirectedTopology>(g: &G) -> Option<Vec<NodeId>> {
    let n_slots = g.n_slots();
    let mut indeg: Vec<u32> = (0..n_slots).map(|s| g.degree(s, Direction::In)).collect();
    let live = g.node_count();
    let mut frontier: Vec<u32> = (0..n_slots)
        .filter(|&s| g.slot_id(s).is_some() && indeg[s] == 0)
        .map(|s| s as u32)
        .collect();
    let threads = num_threads();
    let mut order = Vec::with_capacity(live);
    while !frontier.is_empty() {
        order.extend(
            frontier
                .iter()
                .map(|&s| g.slot_id(s as usize).expect("queued slot live")),
        );
        let mut next: Vec<u32> = if threads > 1 && frontier.len() >= PAR_MIN_FRONTIER {
            let indeg = as_atomic(&mut indeg);
            let fr = &frontier;
            let (bufs, _) = parallel_map_morsels(fr.len(), threads, |_, range| {
                let mut buf: Vec<u32> = Vec::new();
                for &u in &fr[range] {
                    for &ns in g.out_row(u as usize) {
                        // ORDERING: Relaxed — the decrement only needs
                        // atomicity (exactly one worker sees the count
                        // hit zero); the next round reads after the pool
                        // barrier's synchronization.
                        if indeg[ns as usize].fetch_sub(1, Ordering::Relaxed) == 1 {
                            buf.push(ns);
                        }
                    }
                }
                buf
            });
            bufs.into_iter().flatten().collect()
        } else {
            let mut buf: Vec<u32> = Vec::new();
            for &u in &frontier {
                for &ns in g.out_row(u as usize) {
                    indeg[ns as usize] -= 1;
                    if indeg[ns as usize] == 0 {
                        buf.push(ns);
                    }
                }
            }
            buf
        };
        next.sort_unstable();
        frontier = next;
    }
    (order.len() == live).then_some(order)
}

/// True when the directed graph contains at least one cycle (self-loops
/// count).
pub fn has_cycle<G: DirectedTopology>(g: &G) -> bool {
    topological_sort(g).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    fn dag() -> DirectedGraph {
        let mut g = DirectedGraph::new();
        for (s, d) in [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)] {
            g.add_edge(s, d);
        }
        g
    }

    #[test]
    fn dfs_preorder_on_tree() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 5);
        g.add_edge(2, 3);
        g.add_edge(2, 4);
        assert_eq!(dfs_order(&g, 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn dfs_visits_each_reachable_node_once() {
        let g = dag();
        let order = dfs_order(&g, 1);
        assert_eq!(order.len(), 5);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert!(dfs_order(&g, 99).is_empty());
        assert_eq!(dfs_order(&g, 5), vec![5]);
    }

    #[test]
    fn topological_sort_respects_edges() {
        let g = dag();
        let order = topological_sort(&g).expect("acyclic");
        let pos = |id: i64| order.iter().position(|&x| x == id).unwrap();
        for (s, d) in g.edges() {
            assert!(pos(s) < pos(d), "{s} before {d}");
        }
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn cycle_detection() {
        let mut g = dag();
        assert!(!has_cycle(&g));
        g.add_edge(5, 1);
        assert!(has_cycle(&g));
        assert!(topological_sort(&g).is_none());

        let mut loopy = DirectedGraph::new();
        loopy.add_edge(1, 1);
        assert!(has_cycle(&loopy));
    }

    #[test]
    fn empty_and_isolated() {
        let g = DirectedGraph::new();
        assert_eq!(topological_sort(&g), Some(vec![]));
        let mut g = DirectedGraph::new();
        g.add_node(3);
        g.add_node(1);
        assert_eq!(topological_sort(&g).unwrap().len(), 2);
    }

    #[test]
    fn deep_dfs_does_not_overflow_stack() {
        let mut g = DirectedGraph::with_capacity(200_000);
        for i in 0..200_000i64 {
            g.add_edge(i, i + 1);
        }
        assert_eq!(dfs_order(&g, 0).len(), 200_001);
    }
}
