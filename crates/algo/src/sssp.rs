//! Single-source shortest paths — one of the paper's Table 6 sequential
//! kernels ("runtime averaged over 10 random sources").

use crate::bfs::{bfs_distances, Direction};
use ringo_graph::{DirectedTopology, NodeId, NodeValues};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Unweighted shortest paths: BFS hop distances per node. This is the
/// SSSP variant Table 6 measures, as the benchmark graphs carry no weights.
/// Routes through the shared direction-optimizing frontier engine (see
/// [`crate::frontier`]), inheriting its parallelism and determinism.
pub fn sssp_unweighted<G: DirectedTopology>(g: &G, src: NodeId, dir: Direction) -> NodeValues<u32> {
    bfs_distances(g, src, dir)
}

/// Dijkstra's algorithm over out-edges with a caller-supplied edge weight
/// function (weights must be non-negative; negative weights panic in debug
/// builds and silently produce wrong results otherwise — as with any
/// Dijkstra). Returns each reached node's distance in ascending slot
/// order; unreachable nodes (and nodes only infinite weights reach) have
/// no value. Walks the graph's slot rows with a dense distance array.
pub fn sssp_dijkstra<G, W>(g: &G, src: NodeId, weight: W) -> NodeValues<f64>
where
    G: DirectedTopology,
    W: Fn(NodeId, NodeId) -> f64,
{
    let id = |s: usize| g.slot_id(s).expect("a row names live slots");
    dijkstra_slots(g, src, |u, k| weight(id(u), id(g.out_row(u)[k] as usize)))
}

/// Dijkstra over slots: `weight(u, k)` is the weight of the `k`-th edge of
/// slot `u`'s out-row.
pub(crate) fn dijkstra_slots<G: DirectedTopology>(
    g: &G,
    src: NodeId,
    weight: impl Fn(usize, usize) -> f64,
) -> NodeValues<f64> {
    let Some(src_slot) = g.slot_of(src) else {
        return g.node_values(Vec::new(), 0, |_| true);
    };
    let mut dist = vec![f64::INFINITY; g.n_slots()];
    let mut reached = 1;
    dist[src_slot] = 0.0;
    // A min-heap of `(distance, slot)`: non-negative distances order as
    // their bits do.
    let mut heap = BinaryHeap::from([Reverse((0.0f64.to_bits(), src_slot))]);
    while let Some(Reverse((bits, slot))) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[slot] {
            continue; // stale entry
        }
        for (k, &v) in g.out_row(slot).iter().enumerate() {
            let vs = v as usize;
            let w = weight(slot, k);
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let cand = d + w;
            if cand < dist[vs] {
                reached += usize::from(dist[vs] == f64::INFINITY);
                dist[vs] = cand;
                heap.push(Reverse((cand.to_bits(), vs)));
            }
        }
    }
    g.node_values(dist, reached, |d| *d < f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    #[test]
    fn unweighted_equals_bfs() {
        let mut g = DirectedGraph::new();
        for (s, d) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
            g.add_edge(s, d);
        }
        let d = sssp_unweighted(&g, 0, Direction::Out);
        assert_eq!(d.get(3), Some(&2));
    }

    #[test]
    fn dijkstra_prefers_cheaper_long_path() {
        let mut g = DirectedGraph::new();
        g.add_edge(0, 1); // weight 10 (direct)
        g.add_edge(0, 2); // weight 1
        g.add_edge(2, 1); // weight 1
        let weight = |a: NodeId, b: NodeId| match (a, b) {
            (0, 1) => 10.0,
            _ => 1.0,
        };
        let d = sssp_dijkstra(&g, 0, weight);
        assert_eq!(d.get(1), Some(&2.0));
        assert_eq!(d.get(2), Some(&1.0));
    }

    #[test]
    fn unit_weights_match_bfs_hops() {
        let mut g = DirectedGraph::new();
        let mut x = 3u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = (x >> 33) % 60;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = (x >> 33) % 60;
            g.add_edge(s as i64, d as i64);
        }
        let bfs = sssp_unweighted(&g, 0, Direction::Out);
        let dij = sssp_dijkstra(&g, 0, |_, _| 1.0);
        assert_eq!(bfs.len(), dij.len());
        for (id, hops) in bfs.iter() {
            assert_eq!(*dij.get(id).unwrap(), f64::from(*hops));
        }
    }

    #[test]
    fn missing_source() {
        let g = DirectedGraph::new();
        assert!(sssp_dijkstra(&g, 5, |_, _| 1.0).is_empty());
    }

    #[test]
    fn unreachable_absent() {
        let mut g = DirectedGraph::new();
        g.add_edge(0, 1);
        g.add_edge(2, 0); // 2 unreachable from 0 via out-edges
        let d = sssp_dijkstra(&g, 0, |_, _| 1.0);
        assert!(d.get(2).is_none());
        assert_eq!(d.len(), 2);
    }
}
