//! Greedy combinatorial primitives on undirected graphs: maximal
//! independent sets, greedy coloring, and maximal matching.

use ringo_concurrent::IntHashTable;
use ringo_graph::{DirectedTopology, NodeId, NodeValues, UndirectedGraph};

/// A maximal independent set built greedily in ascending-id order
/// (deterministic). No two returned nodes are adjacent, and no further
/// node can be added. Nodes with self-loops are skipped (they conflict
/// with themselves).
pub fn maximal_independent_set(g: &UndirectedGraph) -> Vec<NodeId> {
    let mut blocked = vec![false; g.n_slots()];
    let mut set = Vec::new();
    for (s, id) in by_id(g) {
        let row = g.out_row(s);
        if blocked[s] || row.binary_search(&(s as u32)).is_ok() {
            continue;
        }
        set.push(id);
        row.iter().for_each(|&t| blocked[t as usize] = true);
    }
    set
}

/// The live slots with their ids, in ascending id order.
fn by_id(g: &UndirectedGraph) -> Vec<(usize, NodeId)> {
    let mut order: Vec<(usize, NodeId)> = (0..g.n_slots())
        .filter_map(|s| Some((s, g.slot_id(s)?)))
        .collect();
    order.sort_unstable_by_key(|&(_, id)| id);
    order
}

/// Greedy graph coloring in ascending-id order: each node takes the
/// smallest color unused by its neighbors. Returns each node's color as a
/// slot-ordered column; uses at most `max_degree + 1` colors. Self-loops
/// make a node uncolorable, so a node with one has no color — callers
/// wanting loops should strip them first.
pub fn greedy_coloring(g: &UndirectedGraph) -> NodeValues<u32> {
    const NONE: u32 = u32::MAX;
    let mut color = vec![NONE; g.n_slots()];
    let mut colored = 0;
    let mut used: Vec<bool> = Vec::new();
    for (s, _) in by_id(g) {
        let row = g.out_row(s);
        if row.binary_search(&(s as u32)).is_ok() {
            continue; // self-conflicting
        }
        used.clear();
        used.resize(row.len() + 1, false);
        for &t in row {
            if let Some(u) = used.get_mut(color[t as usize] as usize) {
                *u = true;
            }
        }
        color[s] = used.iter().position(|&u| !u).expect("deg+1 colors suffice") as u32;
        colored += 1;
    }
    g.node_values(color, colored, |&c| c != NONE)
}

/// A maximal matching built greedily in ascending edge order: a set of
/// pairwise non-adjacent edges that cannot be extended.
pub fn maximal_matching(g: &UndirectedGraph) -> Vec<(NodeId, NodeId)> {
    let mut matched: IntHashTable<()> = IntHashTable::new();
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().filter(|(a, b)| a != b).collect();
    edges.sort_unstable();
    let mut out = Vec::new();
    for (a, b) in edges {
        if !matched.contains(a) && !matched.contains(b) {
            matched.insert(a, ());
            matched.insert(b, ());
            out.push((a, b));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: i64) -> UndirectedGraph {
        let mut g = UndirectedGraph::new();
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn mis_is_independent_and_maximal() {
        let g = path(7);
        let set = maximal_independent_set(&g);
        // Independence.
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                assert!(!g.has_edge(a, b));
            }
        }
        // Maximality: every non-member has a member neighbor.
        for id in g.node_ids() {
            if !set.contains(&id) {
                assert!(g.nbrs(id).any(|n| set.contains(&n)));
            }
        }
        // Greedy on a path takes alternating nodes: 0,2,4,6.
        assert_eq!(set, vec![0, 2, 4, 6]);
    }

    #[test]
    fn coloring_is_proper_and_bounded() {
        let mut g = UndirectedGraph::new();
        // Random-ish graph.
        let mut x = 3u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 33) % 60;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 33) % 60;
            if a != b {
                g.add_edge(a as i64, b as i64);
            }
        }
        let color = greedy_coloring(&g);
        assert_eq!(color.len(), g.node_count());
        let max_deg = g.node_ids().map(|v| g.degree(v).unwrap()).max().unwrap();
        for id in g.node_ids() {
            let c = *color.get(id).unwrap();
            assert!((c as usize) <= max_deg);
            for n in g.nbrs(id) {
                assert_ne!(color.get(n), Some(&c), "adjacent same color");
            }
        }
    }

    #[test]
    fn bipartite_path_uses_two_colors() {
        let color = greedy_coloring(&path(10));
        let max = (0..10).map(|i| *color.get(i).unwrap()).max().unwrap();
        assert_eq!(max, 1);
    }

    #[test]
    fn triangle_needs_three_colors() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(1, 3);
        let color = greedy_coloring(&g);
        let mut cs: Vec<u32> = (1..=3).map(|i| *color.get(i).unwrap()).collect();
        cs.sort_unstable();
        assert_eq!(cs, vec![0, 1, 2]);
    }

    #[test]
    fn matching_is_disjoint_and_maximal() {
        let g = path(8);
        let m = maximal_matching(&g);
        let mut seen = std::collections::HashSet::new();
        for (a, b) in &m {
            assert!(g.has_edge(*a, *b));
            assert!(seen.insert(*a) && seen.insert(*b), "vertex reused");
        }
        // Maximality: every unmatched edge touches a matched vertex.
        for (a, b) in g.edges() {
            if !m.contains(&(a, b)) {
                assert!(seen.contains(&a) || seen.contains(&b));
            }
        }
        assert_eq!(m.len(), 4, "perfect matching on an 8-path");
    }

    #[test]
    fn self_loops_are_skipped() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 1);
        g.add_edge(1, 2);
        let set = maximal_independent_set(&g);
        assert_eq!(set, vec![2]);
        let m = maximal_matching(&g);
        assert_eq!(m, vec![(1, 2)]);
        let color = greedy_coloring(&g);
        assert!(color.get(1).is_none());
        assert!(color.get(2).is_some());
    }
}
