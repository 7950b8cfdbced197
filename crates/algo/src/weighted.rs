//! Algorithms over weighted digraphs: weighted PageRank and weighted
//! shortest paths on stored edge weights.

use crate::pagerank::{power_iteration, PageRankConfig};
use crate::sssp::dijkstra_slots;
use crate::sweep::Sweep;
use ringo_graph::{DirectedTopology, NodeId, NodeValues, WeightedDigraph};

/// Weighted PageRank: a random surfer follows out-edges with probability
/// proportional to edge weight (instead of uniformly). Weights must be
/// non-negative and not NaN — `table_to_weighted_graph` refuses any
/// other, and `add_edge` trusts its caller; nodes whose total out-weight
/// is zero are treated as dangling. Scores sum to 1, as a slot-ordered
/// column.
///
/// Each node pulls over its in-row, in slot order, starting from the
/// teleport term: the order in which pushing every node's share along
/// its out-row, node by node in slot order, would add them.
pub fn pagerank_weighted(g: &WeightedDigraph, config: &PageRankConfig) -> NodeValues<f64> {
    let sweep = Sweep::new(g, config.threads);
    let n = g.node_count() as f64;
    let d = config.damping;
    let strength: Vec<f64> = (0..g.n_slots())
        .map(|s| g.out_weights(s).iter().sum())
        .collect();
    // The weight of `u -> s`, found in `u`'s slot-sorted out-row.
    let weight =
        |u: usize, s: usize| g.out_weights(u)[g.out_row(u).partition_point(|&t| (t as usize) < s)];
    let rank = power_iteration(
        &sweep,
        config,
        sweep.filled(1.0 / n),
        |u| strength[u],
        d,
        |dangling| (1.0 - d) / n + d * dangling / n,
        |s, base, share| {
            let mut acc = base;
            for &u in g.in_row(s) {
                acc += share[u as usize] * weight(u as usize, s);
            }
            acc
        },
    );
    drop(strength);
    sweep.finish(g, rank)
}

/// Dijkstra over the graph's stored weights, which must be non-negative
/// and not NaN: the heap orders distances by `f64::to_bits`, which is
/// numeric order only there, and checks the sign only in debug builds.
/// `table_to_weighted_graph` refuses any other weight; `add_edge` trusts
/// its caller. Returns each reached node's distance in ascending slot
/// order; unreachable nodes have no value.
pub fn dijkstra_weighted(g: &WeightedDigraph, src: NodeId) -> NodeValues<f64> {
    dijkstra_slots(g, src, |u, k| g.out_weights(u)[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(res: &NodeValues<f64>, id: NodeId) -> f64 {
        *res.get(id).unwrap()
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
        let sum: f64 = pr.values().iter().sum();
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
        for (id, s) in a.iter() {
            let sb = of(&b, id);
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
