//! Bipartiteness testing and one-mode projection.
//!
//! Question-answer data is naturally bipartite (users × posts); analysts
//! routinely test whether a constructed graph is two-colorable and
//! project a bipartite graph onto one side (connecting users who touch a
//! common post) — another of Ringo's graph-construction idioms.

use ringo_graph::{DirectedTopology, NodeId, NodeValues, UndirectedGraph};

/// Side of a slot not reached yet.
const UNSEEN: u8 = 2;

/// Two-coloring of an undirected graph: `Some` column of each node's side,
/// 0 or 1, when the graph is bipartite, `None` when any odd cycle
/// (including a self-loop) exists. A breadth-first sweep over the slot
/// rows, one component after another in slot order.
pub fn bipartite_sides(g: &UndirectedGraph) -> Option<NodeValues<u8>> {
    let mut side = vec![UNSEEN; g.n_slots()];
    let mut queue = Vec::new();
    for start in 0..g.n_slots() {
        if side[start] != UNSEEN || g.slot_id(start).is_none() {
            continue;
        }
        side[start] = 0;
        queue.clear();
        queue.push(start);
        let mut next = 0;
        while let Some(&u) = queue.get(next) {
            next += 1;
            for &v in g.out_row(u) {
                let v = v as usize;
                if side[v] == UNSEEN {
                    side[v] = 1 - side[u];
                    queue.push(v);
                } else if side[v] == side[u] {
                    return None; // an odd cycle; a self-loop is one
                }
            }
        }
    }
    Some(g.node_values(side, g.node_count(), |_| true))
}

/// True when the graph contains no odd cycle.
pub fn is_bipartite(g: &UndirectedGraph) -> bool {
    bipartite_sides(g).is_some()
}

/// One-mode projection of a bipartite graph: connects two *left* nodes
/// whenever they share at least one right-side neighbor. `left` is the
/// caller's membership predicate (e.g. "is a user id"). Nodes for which
/// `left` is true appear in the projection (isolated if they share no
/// neighbor).
pub fn project_onto<F>(g: &UndirectedGraph, left: F) -> UndirectedGraph
where
    F: Fn(NodeId) -> bool,
{
    // Each live slot's id when it is on the left side.
    let lefts: Vec<Option<NodeId>> = (0..g.n_slots())
        .map(|s| g.slot_id(s).filter(|&id| left(id)))
        .collect();
    let mut out = UndirectedGraph::new();
    for (u, &id) in lefts.iter().enumerate() {
        let Some(u_id) = id else { continue };
        out.add_node(u_id);
        for &mid in g.out_row(u) {
            if lefts[mid as usize].is_some() {
                continue; // not a right-side pivot
            }
            for &w in g.out_row(mid as usize) {
                if let Some(w_id) = lefts[w as usize].filter(|_| w as usize != u) {
                    out.add_edge(u_id, w_id);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_cycle_is_bipartite_odd_is_not() {
        let mut even = UndirectedGraph::new();
        for i in 0..6 {
            even.add_edge(i, (i + 1) % 6);
        }
        let sides = bipartite_sides(&even).expect("6-cycle is bipartite");
        for (a, b) in even.edges() {
            assert_ne!(sides.get(a), sides.get(b));
        }
        let mut odd = UndirectedGraph::new();
        for i in 0..5 {
            odd.add_edge(i, (i + 1) % 5);
        }
        assert!(!is_bipartite(&odd));
    }

    #[test]
    fn self_loop_breaks_bipartiteness() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        assert!(is_bipartite(&g));
        g.add_edge(2, 2);
        assert!(!is_bipartite(&g));
    }

    #[test]
    fn disconnected_components_checked_independently() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2); // bipartite piece
        g.add_edge(10, 11);
        g.add_edge(11, 12);
        g.add_edge(10, 12); // triangle
        assert!(!is_bipartite(&g));
    }

    #[test]
    fn projection_connects_coparticipants() {
        // Users 1..3 (ids < 100), posts 100, 101.
        // 1 and 2 touch post 100; 2 and 3 touch post 101.
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 100);
        g.add_edge(2, 100);
        g.add_edge(2, 101);
        g.add_edge(3, 101);
        let p = project_onto(&g, |id| id < 100);
        assert_eq!(p.node_count(), 3);
        assert!(p.has_edge(1, 2));
        assert!(p.has_edge(2, 3));
        assert!(!p.has_edge(1, 3), "no common post");
        assert!(!p.has_node(100));
    }

    #[test]
    fn projection_keeps_isolated_left_nodes() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 100);
        g.add_node(2); // left node with no posts
        let p = project_onto(&g, |id| id < 100);
        assert!(p.has_node(2));
        assert_eq!(p.degree(2), Some(0));
        assert_eq!(p.edge_count(), 0, "single participant creates no pairs");
    }

    #[test]
    fn empty_graph_is_bipartite() {
        let g = UndirectedGraph::new();
        assert!(is_bipartite(&g));
        assert_eq!(project_onto(&g, |_| true).node_count(), 0);
    }
}
