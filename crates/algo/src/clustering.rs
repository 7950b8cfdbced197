//! Clustering coefficients (local and graph-average).

use crate::triangles::triangles_per_slot;
use ringo_graph::{DirectedTopology, NodeValues, UndirectedGraph};

/// Local clustering coefficient per node: `2 * triangles(v) / (d * (d-1))`
/// where `d` is the degree excluding self-loops. Nodes with degree < 2
/// have coefficient 0. Returned as a slot-ordered column.
pub fn node_clustering(g: &UndirectedGraph, threads: usize) -> NodeValues<f64> {
    let coefficients = triangles_per_slot(g, threads)
        .into_iter()
        .enumerate()
        .map(|(s, tri)| {
            let row = g.out_row(s);
            let d = (row.len() - usize::from(row.binary_search(&(s as u32)).is_ok())) as f64;
            let denom = d * (d - 1.0);
            if denom > 0.0 {
                2.0 * tri as f64 / denom
            } else {
                0.0
            }
        })
        .collect();
    g.node_values(coefficients, g.node_count(), |_| true)
}

/// Average clustering coefficient of the graph (mean of local
/// coefficients; 0 for an empty graph).
pub fn clustering_coefficient(g: &UndirectedGraph, threads: usize) -> f64 {
    let per_node = node_clustering(g, threads);
    if per_node.is_empty() {
        return 0.0;
    }
    per_node.values().iter().sum::<f64>() / per_node.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_is_fully_clustered() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(1, 3);
        assert!((clustering_coefficient(&g, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_has_zero_clustering() {
        let mut g = UndirectedGraph::new();
        for i in 1..6 {
            g.add_edge(0, i);
        }
        assert_eq!(clustering_coefficient(&g, 1), 0.0);
    }

    #[test]
    fn paw_graph_mixed_values() {
        // Triangle 0-1-2 with pendant 3 attached to 0.
        let mut g = UndirectedGraph::new();
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        let cc = node_clustering(&g, 1);
        let of = |id: i64| *cc.get(id).unwrap();
        assert!((of(0) - 1.0 / 3.0).abs() < 1e-12, "deg 3, one triangle");
        assert!((of(1) - 1.0).abs() < 1e-12);
        assert!((of(2) - 1.0).abs() < 1e-12);
        assert_eq!(of(3), 0.0, "degree-1 node");
    }

    #[test]
    fn self_loops_do_not_distort() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(1, 3);
        g.add_edge(1, 1);
        let cc = node_clustering(&g, 1);
        let of = |id: i64| *cc.get(id).unwrap();
        assert!((of(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = UndirectedGraph::new();
        assert_eq!(clustering_coefficient(&g, 2), 0.0);
    }
}
