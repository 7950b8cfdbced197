//! Partition quality metrics: modularity and conductance.
//!
//! Community detection without a quality score is guesswork; these are
//! the two standard yardsticks. Both operate on undirected graphs and a
//! node → community assignment (as produced by
//! [`crate::label_propagation`] or any [`crate::Components`]).

use crate::components::Components;
use ringo_graph::UndirectedGraph;

/// Newman modularity `Q` of a partition: the fraction of edges inside
/// communities minus the expectation under the configuration model.
/// Ranges in `[-0.5, 1]`; 0 for random assignments, higher = stronger
/// community structure. Self-loops count as internal edges.
pub fn modularity(g: &UndirectedGraph, partition: &Components) -> f64 {
    let two_m: f64 = 2.0 * g.edge_count() as f64;
    if two_m == 0.0 {
        return 0.0;
    }
    let n_comms = partition.n_components();
    // internal[c] = 2 * edges inside c (each endpoint counted);
    // degree[c] = total degree of c's nodes.
    let mut internal = vec![0.0f64; n_comms];
    let mut degree = vec![0.0f64; n_comms];
    for u in g.node_ids() {
        let cu = match partition.component(u) {
            Some(c) => c as usize,
            None => continue,
        };
        for v in g.nbrs(u) {
            if v == u {
                // A self-loop contributes 2 to both ends (same node).
                internal[cu] += 2.0;
                degree[cu] += 2.0;
                continue;
            }
            degree[cu] += 1.0;
            if partition.component(v) == Some(cu as u32) {
                internal[cu] += 1.0;
            }
        }
    }
    (0..n_comms)
        .map(|c| internal[c] / two_m - (degree[c] / two_m).powi(2))
        .sum()
}

/// Conductance of one community: boundary edges divided by the smaller of
/// the community's and its complement's edge volume. Lower = better
/// separated; `None` when the cut is degenerate (empty side or no
/// volume).
pub fn conductance(g: &UndirectedGraph, partition: &Components, community: u32) -> Option<f64> {
    let mut boundary = 0.0f64;
    let mut vol_in = 0.0f64;
    let mut vol_out = 0.0f64;
    for u in g.node_ids() {
        let cu = partition.component(u)?;
        for v in g.nbrs(u) {
            if v == u {
                continue;
            }
            let inside_u = cu == community;
            if inside_u {
                vol_in += 1.0;
            } else {
                vol_out += 1.0;
            }
            let cv = partition.component(v)?;
            if inside_u != (cv == community) {
                boundary += 1.0;
            }
        }
    }
    let denom = vol_in.min(vol_out);
    if denom == 0.0 {
        return None;
    }
    // `boundary` counted each cut edge from both sides; halve it so the
    // numerator is the cut size, over the smaller degree-sum volume.
    Some(boundary / 2.0 / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::label_propagation;
    use ringo_graph::DirectedTopology;

    fn two_cliques_bridged() -> UndirectedGraph {
        let mut g = UndirectedGraph::new();
        for a in 0..5i64 {
            for b in (a + 1)..5 {
                g.add_edge(a, b);
            }
        }
        for a in 10..15i64 {
            for b in (a + 1)..15 {
                g.add_edge(a, b);
            }
        }
        g.add_edge(4, 10);
        g
    }

    /// The assignment as a decomposition over a graph of its ids alone
    /// (slot `k` holds the `k`-th id, so the labels are the slot array).
    fn partition_of(assign: &[(i64, u32)]) -> Components {
        let mut ids = UndirectedGraph::new();
        let mut sizes = vec![];
        for &(id, c) in assign {
            ids.add_node(id);
            if sizes.len() <= c as usize {
                sizes.resize(c as usize + 1, 0);
            }
            sizes[c as usize] += 1;
        }
        let labels = assign.iter().map(|&(_, c)| c).collect();
        Components {
            comp_of: ids.node_values(labels, assign.len(), |_| true),
            sizes,
        }
    }

    #[test]
    fn good_partition_beats_bad_partition() {
        let g = two_cliques_bridged();
        let good = partition_of(
            &(0..5)
                .map(|v| (v, 0))
                .chain((10..15).map(|v| (v, 1)))
                .collect::<Vec<_>>(),
        );
        // Bad: split each clique in half.
        let bad = partition_of(
            &(0..5)
                .map(|v| (v, u32::from(v >= 2)))
                .chain((10..15).map(|v| (v, u32::from(v >= 12))))
                .collect::<Vec<_>>(),
        );
        let q_good = modularity(&g, &good);
        let q_bad = modularity(&g, &bad);
        assert!(q_good > 0.4, "clique split is strong: {q_good}");
        assert!(q_good > q_bad + 0.1, "{q_good} vs {q_bad}");
    }

    #[test]
    fn single_community_has_zero_modularity() {
        let g = two_cliques_bridged();
        let all = partition_of(&g.node_ids().map(|v| (v, 0)).collect::<Vec<_>>());
        assert!(modularity(&g, &all).abs() < 1e-12);
    }

    #[test]
    fn label_propagation_finds_high_modularity_split() {
        let g = two_cliques_bridged();
        let comms = label_propagation(&g, 30, 42);
        let q = modularity(&g, &comms);
        assert!(q > 0.4, "LPA should recover the cliques: {q}");
    }

    #[test]
    fn conductance_of_well_separated_community_is_low() {
        let g = two_cliques_bridged();
        let good = partition_of(
            &(0..5)
                .map(|v| (v, 0))
                .chain((10..15).map(|v| (v, 1)))
                .collect::<Vec<_>>(),
        );
        // One bridge edge over volume 21 (20 internal ends + 1 bridge end).
        let c = conductance(&g, &good, 0).unwrap();
        assert!(c < 0.1, "conductance {c}");
        // Half-clique cut is much worse.
        let bad = partition_of(
            &(0..5)
                .map(|v| (v, u32::from(v >= 2)))
                .chain((10..15).map(|v| (v, 2)))
                .collect::<Vec<_>>(),
        );
        let c_bad = conductance(&g, &bad, 0).unwrap();
        assert!(c_bad > 3.0 * c, "bad {c_bad} vs good {c}");
    }

    #[test]
    fn degenerate_cuts_are_none() {
        let g = two_cliques_bridged();
        let all = partition_of(&g.node_ids().map(|v| (v, 0)).collect::<Vec<_>>());
        assert!(conductance(&g, &all, 0).is_none(), "no outside volume");
        assert!(conductance(&g, &all, 7).is_none(), "empty community");
        let empty = UndirectedGraph::new();
        assert_eq!(modularity(&empty, &all), 0.0);
    }

    #[test]
    fn self_loops_count_as_internal() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 1);
        let p = partition_of(&[(1, 0), (2, 0)]);
        assert!(modularity(&g, &p).abs() < 1e-12, "one community: Q=0");
    }
}
