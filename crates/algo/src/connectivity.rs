//! Undirected connectivity: reachability queries (routed through the
//! shared frontier engine) plus articulation points and bridges via an
//! iterative Hopcroft–Tarjan lowpoint DFS (explicit stack — safe on deep
//! graphs).

use crate::frontier::{FrontierEngine, UNVISITED as UNREACHED};
use ringo_graph::{DirectedTopology, Direction, NodeId, UndirectedGraph};

/// Output of the lowpoint DFS.
#[derive(Clone, Debug, Default)]
pub struct CutStructure {
    /// Nodes whose removal disconnects their component.
    pub articulation_points: Vec<NodeId>,
    /// Edges whose removal disconnects their component, as `(a, b)` with
    /// `a <= b`.
    pub bridges: Vec<(NodeId, NodeId)>,
}

/// Ids reachable from `src` in the undirected graph (including `src`
/// itself), in ascending id order. Empty when `src` is not in the graph.
///
/// Runs the direction-optimizing [`FrontierEngine`] over the undirected
/// adjacency ([`UndirectedGraph`] implements `DirectedTopology` with
/// out = in = the symmetric neighbor set).
pub fn reachable_from(g: &UndirectedGraph, src: NodeId) -> Vec<NodeId> {
    let mut sp = ringo_trace::span!("algo.reachable");
    sp.rows_in(g.node_count());
    let mut ids: Vec<NodeId> = match FrontierEngine::new(g, Direction::Out).run(src) {
        Some(state) => state
            .visited
            .iter()
            .map(|&s| g.slot_id(s as usize).expect("visited slot live"))
            .collect(),
        None => Vec::new(),
    };
    ids.sort_unstable();
    sp.rows_out(ids.len());
    ids
}

/// Whether `b` is reachable from `a` (trivially true when `a == b` and
/// `a` exists). False when either endpoint is missing.
pub fn is_reachable(g: &UndirectedGraph, a: NodeId, b: NodeId) -> bool {
    let Some(bs) = g.slot_of(b) else {
        return false;
    };
    FrontierEngine::new(g, Direction::Out)
        .run(a)
        .is_some_and(|state| state.dist[bs] != UNREACHED)
}

/// Computes articulation points and bridges of an undirected graph.
/// Self-loops are ignored; parallel edges cannot occur in
/// [`UndirectedGraph`].
pub fn cut_structure(g: &UndirectedGraph) -> CutStructure {
    let n_slots = g.n_slots();
    const UNVISITED: u32 = u32::MAX;
    let mut disc = vec![UNVISITED; n_slots];
    let mut low = vec![0u32; n_slots];
    let mut parent = vec![usize::MAX; n_slots];
    let mut is_cut = vec![false; n_slots];
    let mut bridges = Vec::new();
    let mut timer = 0u32;

    for root in 0..n_slots {
        if g.slot_id(root).is_none() || disc[root] != UNVISITED {
            continue;
        }
        let mut root_children = 0usize;
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        // Frames: (slot, the part of its row not yet walked).
        let mut stack: Vec<(usize, &[u32])> = vec![(root, g.out_row(root))];
        while let Some(&mut (slot, ref mut rest)) = stack.last_mut() {
            if let Some((&next, tail)) = rest.split_first() {
                *rest = tail;
                let ns = next as usize;
                if ns == slot {
                    continue; // self-loop
                }
                if disc[ns] == UNVISITED {
                    parent[ns] = slot;
                    if slot == root {
                        root_children += 1;
                    }
                    disc[ns] = timer;
                    low[ns] = timer;
                    timer += 1;
                    stack.push((ns, g.out_row(ns)));
                } else if ns != parent[slot] {
                    low[slot] = low[slot].min(disc[ns]);
                }
            } else {
                stack.pop();
                let p = parent[slot];
                if p != usize::MAX {
                    low[p] = low[p].min(low[slot]);
                    if low[slot] > disc[p] {
                        let id = |s: usize| g.slot_id(s).expect("a visited slot is live");
                        let (a, b) = (id(p), id(slot));
                        bridges.push((a.min(b), a.max(b)));
                    }
                    if p != root && low[slot] >= disc[p] {
                        is_cut[p] = true;
                    }
                }
            }
        }
        if root_children >= 2 {
            is_cut[root] = true;
        }
    }

    let mut articulation_points: Vec<NodeId> = (0..n_slots)
        .filter(|&s| is_cut[s])
        .map(|s| g.slot_id(s).expect("cut slot live"))
        .collect();
    articulation_points.sort_unstable();
    bridges.sort_unstable();
    CutStructure {
        articulation_points,
        bridges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(i64, i64)]) -> UndirectedGraph {
        let mut g = UndirectedGraph::new();
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn path_interior_nodes_are_cut_points_and_all_edges_bridges() {
        let g = graph(&[(1, 2), (2, 3), (3, 4)]);
        let c = cut_structure(&g);
        assert_eq!(c.articulation_points, vec![2, 3]);
        assert_eq!(c.bridges, vec![(1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn cycle_has_no_cuts() {
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        let c = cut_structure(&g);
        assert!(c.articulation_points.is_empty());
        assert!(c.bridges.is_empty());
    }

    #[test]
    fn barbell_center_edge_is_the_bridge() {
        // Triangle 0-1-2 — bridge 2-3 — triangle 3-4-5.
        let g = graph(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let c = cut_structure(&g);
        assert_eq!(c.bridges, vec![(2, 3)]);
        assert_eq!(c.articulation_points, vec![2, 3]);
    }

    #[test]
    fn star_center_is_the_only_cut_point() {
        let g = graph(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let c = cut_structure(&g);
        assert_eq!(c.articulation_points, vec![0]);
        assert_eq!(c.bridges.len(), 4);
    }

    #[test]
    fn self_loops_and_isolated_nodes_ignored() {
        let mut g = graph(&[(1, 2), (2, 3)]);
        g.add_edge(2, 2);
        g.add_node(9);
        let c = cut_structure(&g);
        assert_eq!(c.articulation_points, vec![2]);
        assert_eq!(c.bridges, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn multiple_components_handled_independently() {
        let g = graph(&[(1, 2), (2, 3), (10, 11), (11, 12), (10, 12)]);
        let c = cut_structure(&g);
        assert_eq!(c.articulation_points, vec![2]);
        assert_eq!(c.bridges, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn bridge_removal_really_disconnects() {
        // Cross-check on a pseudo-random graph: removing a reported
        // bridge increases the number of weak components.
        let mut g = UndirectedGraph::new();
        let mut x = 3u64;
        for _ in 0..120 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 33) % 60;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 33) % 60;
            if a != b {
                g.add_edge(a as i64, b as i64);
            }
        }
        let c = cut_structure(&g);
        for &(a, b) in c.bridges.iter().take(5) {
            assert!(is_reachable(&g, a, b), "bridge endpoints share a component");
            let mut cut = g.clone();
            cut.del_edge(a, b);
            assert!(
                !is_reachable(&cut, a, b),
                "bridge {a}-{b} did not disconnect"
            );
            let reach = reachable_from(&cut, a);
            assert!(!reach.contains(&b));
            assert!(reach.contains(&a));
        }
    }

    #[test]
    fn reachable_from_reports_the_component_sorted() {
        let g = graph(&[(5, 1), (1, 9), (20, 21)]);
        assert_eq!(reachable_from(&g, 9), vec![1, 5, 9]);
        assert_eq!(reachable_from(&g, 20), vec![20, 21]);
        assert!(reachable_from(&g, 404).is_empty());
        assert!(is_reachable(&g, 5, 9));
        assert!(!is_reachable(&g, 5, 20));
        assert!(is_reachable(&g, 21, 21));
        assert!(!is_reachable(&g, 21, 404));
        assert!(!is_reachable(&g, 404, 21));
    }

    #[test]
    fn empty_graph() {
        let g = UndirectedGraph::new();
        let c = cut_structure(&g);
        assert!(c.articulation_points.is_empty());
        assert!(c.bridges.is_empty());
    }
}
