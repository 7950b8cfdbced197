//! k-truss decomposition: the triangle-reinforced analogue of the k-core.
//!
//! The k-truss of an undirected graph is the maximal subgraph in which
//! every edge participates in at least `k - 2` triangles. Trusses are the
//! standard "cohesive community core" refinement of cores: a k-truss is
//! always contained in the (k-1)-core but is far denser in practice.

use crate::intersect::for_each_common;
use ringo_graph::{DirectedTopology, NodeId, UndirectedGraph};
use std::collections::{HashMap, VecDeque};

/// Truss number of every edge `(a, b)` with `a <= b` (self-loops carry no
/// triangles and are excluded): the largest `k` such that the edge
/// survives in the k-truss. Edges in no triangle have truss number 2.
pub fn truss_numbers(g: &UndirectedGraph) -> HashMap<(NodeId, NodeId), u32> {
    // Edges as slot pairs `(u, v)` with `u < v`, read off the rows.
    let row = |s: u32| g.out_row(s as usize);
    // Support = number of triangles through each edge.
    let mut support: HashMap<(u32, u32), u32> = (0..g.n_slots() as u32)
        .flat_map(|u| row(u).iter().filter(move |&&v| v > u).map(move |&v| (u, v)))
        .map(|(u, v)| {
            let mut count = 0;
            for_each_common(row(u), row(v), |w| count += u32::from(w != u && w != v));
            ((u, v), count)
        })
        .collect();

    // Peel edges in increasing support; the classic truss decomposition.
    let mut alive: HashMap<(u32, u32), bool> = support.keys().map(|&e| (e, true)).collect();
    let mut truss: HashMap<(NodeId, NodeId), u32> = HashMap::with_capacity(support.len());
    let mut k = 2u32;
    let mut remaining = support.len();
    while remaining > 0 {
        // Collect edges with support <= k - 2.
        let mut queue: VecDeque<(u32, u32)> = support
            .iter()
            .filter(|(e, &s)| alive[*e] && s <= k - 2)
            .map(|(&e, _)| e)
            .collect();
        while let Some(e) = queue.pop_front() {
            if !alive[&e] {
                continue;
            }
            alive.insert(e, false);
            let (u, v) = e;
            let (a, b) = (id_of(g, u), id_of(g, v));
            truss.insert((a.min(b), a.max(b)), k);
            remaining -= 1;
            // The triangle {u, v, w} exists only while (u,w) and (v,w) are
            // both alive; if one has fallen, its own removal already took
            // this triangle off the other.
            for_each_common(row(u), row(v), |w| {
                if w == u || w == v {
                    return;
                }
                let sides = [(u.min(w), u.max(w)), (v.min(w), v.max(w))];
                if !sides.iter().all(|side| alive[side]) {
                    return;
                }
                for other in sides {
                    let s = support.get_mut(&other).expect("edge tracked");
                    *s = s.checked_sub(1).expect("support counts live triangles");
                    if *s <= k - 2 {
                        queue.push_back(other);
                    }
                }
            });
        }
        k += 1;
    }
    truss
}

/// The id in `slot`, which a row named.
fn id_of(g: &UndirectedGraph, slot: u32) -> NodeId {
    g.slot_id(slot as usize).expect("a row names live slots")
}

/// Extracts the k-truss subgraph: edges with truss number >= `k` and the
/// nodes they touch.
pub fn k_truss(g: &UndirectedGraph, k: u32) -> UndirectedGraph {
    let truss = truss_numbers(g);
    let mut out = UndirectedGraph::new();
    for ((a, b), t) in truss {
        if t >= k {
            out.add_edge(a, b);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique(n: i64) -> UndirectedGraph {
        let mut g = UndirectedGraph::new();
        for a in 0..n {
            for b in (a + 1)..n {
                g.add_edge(a, b);
            }
        }
        g
    }

    #[test]
    fn clique_truss_is_n() {
        // In K_n every edge sits in n-2 triangles: truss number n.
        let g = clique(5);
        let t = truss_numbers(&g);
        assert_eq!(t.len(), 10);
        assert!(t.values().all(|&v| v == 5));
    }

    #[test]
    fn triangle_free_edges_have_truss_two() {
        let mut g = UndirectedGraph::new();
        for i in 0..5 {
            g.add_edge(i, i + 1);
        }
        let t = truss_numbers(&g);
        assert!(t.values().all(|&v| v == 2));
    }

    #[test]
    fn clique_with_tail() {
        // K4 plus pendant edge: clique edges truss 4, pendant truss 2.
        let mut g = clique(4);
        g.add_edge(3, 10);
        let t = truss_numbers(&g);
        assert_eq!(t[&(3, 10)], 2);
        assert_eq!(t[&(0, 1)], 4);
        let core = k_truss(&g, 4);
        assert_eq!(core.node_count(), 4);
        assert_eq!(core.edge_count(), 6);
        assert!(!core.has_node(10));
    }

    #[test]
    fn truss_contained_in_smaller_truss() {
        let mut g = clique(4);
        g.add_edge(0, 10);
        g.add_edge(1, 10);
        g.add_edge(0, 11); // no triangle
        let t3 = k_truss(&g, 3);
        let t4 = k_truss(&g, 4);
        for (a, b) in t4.edges() {
            assert!(t3.has_edge(a, b), "4-truss inside 3-truss");
        }
        assert!(t3.has_edge(0, 10), "0-1-10 triangle keeps these in 3-truss");
        assert!(!t3.has_edge(0, 11));
        // Losing (0,10) and (1,10) costs (0,1) one triangle, once: the
        // clique stays a 4-truss.
        let t = truss_numbers(&g);
        for (a, b) in clique(4).edges() {
            assert_eq!(t[&(a, b)], 4, "clique edge ({a},{b})");
        }
        assert_eq!((t[&(0, 10)], t[&(1, 10)], t[&(0, 11)]), (3, 3, 2));
    }

    #[test]
    fn two_triangles_sharing_an_edge() {
        let mut g = UndirectedGraph::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)] {
            g.add_edge(a, b);
        }
        let t = truss_numbers(&g);
        assert_eq!(t[&(2, 3)], 3, "shared edge has 2 triangles but peels at 3");
        assert_eq!(t[&(1, 2)], 3);
        assert_eq!(t[&(2, 4)], 3);
    }

    #[test]
    fn empty_graph_and_self_loops() {
        let g = UndirectedGraph::new();
        assert!(truss_numbers(&g).is_empty());
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 1);
        g.add_edge(1, 2);
        let t = truss_numbers(&g);
        assert_eq!(t.len(), 1, "self-loop excluded");
        assert_eq!(t[&(1, 2)], 2);
    }
}
