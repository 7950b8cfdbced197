//! Structural statistics: degree distributions and diameter estimates.

use crate::bfs::{bfs_distances, Direction};
use ringo_graph::{DirectedTopology, NodeId};

/// Histogram of node degrees as sorted `(degree, node_count)` pairs. A
/// node's degree is the length of its out-row (`Out`), of its in-row
/// (`In`) or of both added (`Both`).
pub fn degree_histogram<G: DirectedTopology>(g: &G, dir: Direction) -> Vec<(usize, usize)> {
    let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for s in 0..g.n_slots() {
        if g.slot_id(s).is_none() {
            continue;
        }
        let d = g.out_row(s).len() * usize::from(dir != Direction::In)
            + g.in_row(s).len() * usize::from(dir != Direction::Out);
        *counts.entry(d).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// Lower bound on the diameter via BFS double sweeps from `samples`
/// starting nodes (edges treated per `dir`). Exact on trees; a tight lower
/// bound in practice on real graphs. The second sweep starts at the node
/// farthest from the first, the one in the minimum slot among ties.
pub fn approx_diameter<G: DirectedTopology>(g: &G, samples: usize, dir: Direction) -> u32 {
    let live: Vec<NodeId> = (0..g.n_slots()).filter_map(|s| g.slot_id(s)).collect();
    if live.is_empty() {
        return 0;
    }
    let stride = live.len().div_ceil(samples.max(1)).max(1);
    let mut best = 0u32;
    for &start in live.iter().step_by(stride) {
        let d1 = bfs_distances(g, start, dir);
        // Farthest node from start (columns are in slot order, so the
        // first maximum is the minimum slot)...
        let mut far = start;
        let mut d = 0;
        for (id, &di) in d1.iter() {
            if di > d {
                (far, d) = (id, di);
            }
        }
        best = best.max(d);
        // ...then sweep again from there.
        let d2 = bfs_distances(g, far, dir);
        best = best.max(d2.values().iter().copied().max().unwrap_or(0));
    }
    best
}

/// Effective diameter: the smallest hop count within which `quantile`
/// (e.g. 0.9) of reachable node pairs lie, estimated from BFS out of
/// `samples` evenly spaced source nodes, interpolated linearly within the
/// last hop. A `quantile` of 0 or less gives 0.0, one of 1 or more the
/// deepest hop seen, and `NaN` gives `NaN`.
pub fn effective_diameter<G: DirectedTopology>(
    g: &G,
    samples: usize,
    quantile: f64,
    dir: Direction,
) -> f64 {
    if quantile.is_nan() {
        return f64::NAN;
    }
    if quantile <= 0.0 {
        return 0.0;
    }
    let live: Vec<NodeId> = (0..g.n_slots()).filter_map(|s| g.slot_id(s)).collect();
    if live.is_empty() {
        return 0.0;
    }
    let stride = live.len().div_ceil(samples.max(1)).max(1);
    let mut hist: Vec<u64> = Vec::new(); // hist[d] = #pairs at distance d
    for &start in live.iter().step_by(stride) {
        for &d in bfs_distances(g, start, dir).values() {
            if d == 0 {
                continue;
            }
            if hist.len() <= d as usize {
                hist.resize(d as usize + 1, 0);
            }
            hist[d as usize] += 1;
        }
    }
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = quantile * total as f64;
    let mut acc = 0u64;
    for (d, &c) in hist.iter().enumerate() {
        let prev = acc;
        acc += c;
        if acc as f64 >= target {
            // Linear interpolation within the final hop bucket.
            let need = target - prev as f64;
            let frac = if c > 0 { need / c as f64 } else { 0.0 };
            return (d as f64 - 1.0) + frac;
        }
    }
    (hist.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    #[test]
    fn histogram_counts_degrees() {
        let mut g = DirectedGraph::new();
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        let h = degree_histogram(&g, Direction::Out);
        // Node 2 has out-degree 0, node 1 has 1, node 0 has 2.
        assert_eq!(h, vec![(0, 1), (1, 1), (2, 1)]);
        let total: usize = h.iter().map(|(_, c)| c).sum();
        assert_eq!(total, g.node_count());
    }

    #[test]
    fn diameter_of_path_is_exact() {
        let mut g = DirectedGraph::new();
        for i in 0..10 {
            g.add_edge(i, i + 1);
        }
        assert_eq!(approx_diameter(&g, 4, Direction::Both), 10);
    }

    #[test]
    fn diameter_of_empty_graph() {
        let g = DirectedGraph::new();
        assert_eq!(approx_diameter(&g, 4, Direction::Both), 0);
        assert_eq!(effective_diameter(&g, 4, 0.9, Direction::Both), 0.0);
    }

    #[test]
    fn effective_diameter_below_full_diameter() {
        let mut g = DirectedGraph::new();
        // A hub with many spokes plus one long tail: most pairs are close.
        for i in 1..50 {
            g.add_edge(0, i);
        }
        g.add_edge(50, 51);
        g.add_edge(51, 52);
        g.add_edge(52, 0);
        let full = approx_diameter(&g, g.node_count(), Direction::Both);
        let eff = effective_diameter(&g, g.node_count(), 0.9, Direction::Both);
        assert!(eff < f64::from(full), "eff {eff} < full {full}");
        assert!(eff > 0.0);
    }

    #[test]
    fn effective_diameter_quantile_edges() {
        // An 11-node path: hops 1..=10 over the undirected pairs.
        let mut g = DirectedGraph::new();
        for i in 0..10 {
            g.add_edge(i, i + 1);
        }
        let eff = |q| effective_diameter(&g, 11, q, Direction::Both);
        assert_eq!(eff(0.0), 0.0, "no pair needs any hop");
        assert_eq!(eff(-1.0), 0.0);
        assert!(eff(f64::NAN).is_nan());
        assert_eq!(eff(1.0), 10.0, "every pair: the full depth");
        assert_eq!(eff(2.0), 10.0);
        let mid = eff(0.5);
        assert!(mid > 0.0 && mid < 10.0, "{mid}");
    }

    #[test]
    fn second_sweep_starts_at_the_minimum_slot_among_the_farthest() {
        // From 0 the farthest nodes are 1 and 2 (one hop). Only 1 leads
        // back through 0 to a node two hops away; 2 reaches nothing.
        let mut g = DirectedGraph::new();
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 0);
        assert_eq!(
            approx_diameter(&g, 1, Direction::Out),
            2,
            "1 is in the lower slot"
        );
        // Same edges, 2 placed first: now the sweep starts at 2.
        let mut h = DirectedGraph::new();
        h.add_node(0);
        h.add_node(2);
        h.add_edge(0, 1);
        h.add_edge(0, 2);
        h.add_edge(1, 0);
        assert_eq!(
            approx_diameter(&h, 1, Direction::Out),
            1,
            "2 is in the lower slot"
        );
    }

    #[test]
    fn clique_has_diameter_one() {
        let mut g = DirectedGraph::new();
        for a in 0..6i64 {
            for b in 0..6 {
                if a != b {
                    g.add_edge(a, b);
                }
            }
        }
        assert_eq!(approx_diameter(&g, 2, Direction::Out), 1);
    }
}
