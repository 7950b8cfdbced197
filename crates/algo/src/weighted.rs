//! Algorithms over weighted digraphs: weighted PageRank and weighted
//! shortest paths on stored edge weights.

use crate::pagerank::PageRankConfig;
use ringo_concurrent::IntHashTable;
use ringo_graph::{DirectedTopology, NodeId, WeightedDigraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Weighted PageRank: a random surfer follows out-edges with probability
/// proportional to edge weight (instead of uniformly). Weights must be
/// non-negative; nodes whose total out-weight is zero are treated as
/// dangling. Scores sum to 1; `(id, score)` pairs in slot order.
pub fn pagerank_weighted(g: &WeightedDigraph, config: &PageRankConfig) -> Vec<(NodeId, f64)> {
    let n_slots = g.n_slots();
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let live: Vec<bool> = (0..n_slots).map(|s| g.slot_id(s).is_some()).collect();
    let strength: Vec<f64> = (0..n_slots)
        .map(|s| g.out_weights(s).iter().sum())
        .collect();
    let mut rank: Vec<f64> = live
        .iter()
        .map(|&l| if l { 1.0 / n as f64 } else { 0.0 })
        .collect();
    let mut next = vec![0.0f64; n_slots];
    for _ in 0..config.iterations {
        let dangling: f64 = (0..n_slots)
            .filter(|&s| live[s] && strength[s] <= 0.0)
            .map(|s| rank[s])
            .sum();
        let base = (1.0 - config.damping) / n as f64 + config.damping * dangling / n as f64;
        for (x, &l) in next.iter_mut().zip(&live) {
            *x = if l { base } else { 0.0 };
        }
        // Push model: each node distributes its rank along out-weights.
        for s in 0..n_slots {
            if !live[s] || strength[s] <= 0.0 {
                continue;
            }
            let share = config.damping * rank[s] / strength[s];
            for (&t, &w) in g.out_row(s).iter().zip(g.out_weights(s)) {
                next[t as usize] += share * w;
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    (0..n_slots)
        .filter_map(|s| Some((g.slot_id(s)?, rank[s])))
        .collect()
}

#[derive(PartialEq)]
struct Entry {
    dist: f64,
    id: NodeId,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist.total_cmp(&self.dist)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra over the graph's stored weights (which must be non-negative).
/// Returns id → distance; unreachable nodes absent.
pub fn dijkstra_weighted(g: &WeightedDigraph, src: NodeId) -> IntHashTable<f64> {
    let mut dist: IntHashTable<f64> = IntHashTable::new();
    if !g.has_node(src) {
        return dist;
    }
    let mut heap = BinaryHeap::new();
    dist.insert(src, 0.0);
    heap.push(Entry { dist: 0.0, id: src });
    while let Some(Entry { dist: d, id }) = heap.pop() {
        if d > *dist.get(id).expect("popped node has distance") {
            continue;
        }
        for (nbr, w) in g.out_edges(id) {
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let cand = d + w;
            let better = dist.get(nbr).is_none_or(|&cur| cand < cur);
            if better {
                dist.insert(nbr, cand);
                heap.push(Entry {
                    dist: cand,
                    id: nbr,
                });
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(res: &[(NodeId, f64)], id: NodeId) -> f64 {
        res.iter().find(|(n, _)| *n == id).unwrap().1
    }

    #[test]
    fn weighted_pagerank_follows_heavy_edges() {
        // 0 points at 1 (weight 9) and 2 (weight 1): 1 should outrank 2.
        let mut g = WeightedDigraph::new();
        g.add_edge(0, 1, 9.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(1, 0, 1.0);
        g.add_edge(2, 0, 1.0);
        let pr = pagerank_weighted(
            &g,
            &PageRankConfig {
                iterations: 60,
                threads: 1,
                ..Default::default()
            },
        );
        assert!(of(&pr, 1) > 2.0 * of(&pr, 2));
        let sum: f64 = pr.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_weights_match_unweighted_pagerank() {
        let edges = [(1i64, 2i64), (2, 3), (3, 1), (1, 3), (4, 1)];
        let mut wg = WeightedDigraph::new();
        let mut g = ringo_graph::DirectedGraph::new();
        for &(s, d) in &edges {
            wg.add_edge(s, d, 1.0);
            g.add_edge(s, d);
        }
        let cfg = PageRankConfig {
            iterations: 40,
            threads: 1,
            ..Default::default()
        };
        let a = pagerank_weighted(&wg, &cfg);
        let b = crate::pagerank::pagerank(&g, &cfg);
        for (id, s) in &a {
            let sb = b.iter().find(|(n, _)| n == id).unwrap().1;
            assert!((s - sb).abs() < 1e-9, "id {id}: {s} vs {sb}");
        }
    }

    #[test]
    fn dijkstra_uses_stored_weights() {
        let mut g = WeightedDigraph::new();
        g.add_edge(0, 1, 10.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(2, 1, 2.0);
        let d = dijkstra_weighted(&g, 0);
        assert_eq!(d.get(1), Some(&3.0));
        assert_eq!(d.get(2), Some(&1.0));
        assert!(dijkstra_weighted(&g, 99).is_empty());
    }

    #[test]
    fn zero_weight_edges_are_free_hops() {
        let mut g = WeightedDigraph::new();
        g.add_edge(0, 1, 0.0);
        g.add_edge(1, 2, 5.0);
        let d = dijkstra_weighted(&g, 0);
        assert_eq!(d.get(1), Some(&0.0));
        assert_eq!(d.get(2), Some(&5.0));
    }
}
