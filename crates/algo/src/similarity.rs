//! Neighborhood-similarity measures used for link prediction and
//! entity resolution: common neighbors, Jaccard, Adamic–Adar, and
//! preferential-attachment scores.

use crate::intersect::{count_common, for_each_common};
use ringo_graph::{DirectedTopology, NodeId, UndirectedGraph};

/// The slot of `id` (if a node) and its row of neighbour slots.
fn slot_row(g: &UndirectedGraph, id: NodeId) -> (Option<u32>, &[u32]) {
    match g.slot_of(id) {
        Some(s) => (Some(s as u32), g.out_row(s)),
        None => (None, &[]),
    }
}

/// Number of common neighbors of `a` and `b` (self-entries excluded).
pub fn common_neighbors(g: &UndirectedGraph, a: NodeId, b: NodeId) -> usize {
    let ((sa, na), (sb, nb)) = (slot_row(g, a), slot_row(g, b));
    let mut n = 0;
    for_each_common(na, nb, |x| n += usize::from(Some(x) != sa && Some(x) != sb));
    n
}

/// Jaccard similarity of the neighborhoods of `a` and `b`:
/// `|N(a) ∩ N(b)| / |N(a) ∪ N(b)|` (0 when both neighborhoods are empty).
pub fn jaccard_similarity(g: &UndirectedGraph, a: NodeId, b: NodeId) -> f64 {
    let ((_, na), (_, nb)) = (slot_row(g, a), slot_row(g, b));
    let inter = count_common(na, nb) as usize;
    let union = na.len() + nb.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Adamic–Adar index: `sum over common neighbors z of 1 / ln(deg(z))`.
/// Common neighbors of degree 1 cannot exist (they neighbor both inputs),
/// so the logarithm is always positive.
pub fn adamic_adar(g: &UndirectedGraph, a: NodeId, b: NodeId) -> f64 {
    let ((sa, na), (sb, nb)) = (slot_row(g, a), slot_row(g, b));
    let mut sum = 0.0;
    for_each_common(na, nb, |z| {
        if Some(z) != sa && Some(z) != sb {
            sum += 1.0 / (g.out_row(z as usize).len() as f64).ln();
        }
    });
    sum
}

/// Preferential-attachment score: `deg(a) * deg(b)`.
pub fn preferential_attachment_score(g: &UndirectedGraph, a: NodeId, b: NodeId) -> usize {
    g.degree(a).unwrap_or(0) * g.degree(b).unwrap_or(0)
}

/// The `k` highest-Jaccard candidate partners for `node` among nodes at
/// distance exactly 2 (the standard link-prediction candidate set),
/// sorted by descending score, ties by ascending id. Existing neighbors
/// and the node itself are excluded.
pub fn top_jaccard_candidates(g: &UndirectedGraph, node: NodeId, k: usize) -> Vec<(NodeId, f64)> {
    let (me, direct) = slot_row(g, node);
    let mut candidates: Vec<u32> = Vec::new();
    for &n in direct {
        for &nn in g.out_row(n as usize) {
            if Some(nn) != me && direct.binary_search(&nn).is_err() {
                candidates.push(nn);
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    let mut scored: Vec<(NodeId, f64)> = candidates
        .into_iter()
        .filter_map(|c| g.slot_id(c as usize))
        .map(|c| (c, jaccard_similarity(g, node, c)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UndirectedGraph {
        // 1 and 2 share neighbors {3, 4}; 5 hangs off 2.
        let mut g = UndirectedGraph::new();
        for (a, b) in [(1, 3), (1, 4), (2, 3), (2, 4), (2, 5)] {
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn common_neighbors_and_jaccard() {
        let g = sample();
        assert_eq!(common_neighbors(&g, 1, 2), 2);
        // N(1) = {3,4}, N(2) = {3,4,5}: inter 2, union 3.
        assert!((jaccard_similarity(&g, 1, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(common_neighbors(&g, 3, 5), 1, "only node 2");
        assert_eq!(common_neighbors(&g, 1, 5), 0);
    }

    #[test]
    fn jaccard_of_identical_neighborhoods_is_one() {
        let g = sample();
        assert_eq!(jaccard_similarity(&g, 3, 3), 1.0);
        assert_eq!(jaccard_similarity(&g, 99, 98), 0.0, "unknown nodes");
    }

    #[test]
    fn adamic_adar_weights_rare_neighbors_higher() {
        let g = sample();
        // Common neighbors of (1,2): 3 (deg 2) and 4 (deg 2).
        let expect = 2.0 / (2.0f64).ln();
        assert!((adamic_adar(&g, 1, 2) - expect).abs() < 1e-12);
        // A hub as the common neighbor contributes less.
        let mut h = sample();
        for i in 10..30 {
            h.add_edge(3, i);
        }
        assert!(adamic_adar(&h, 1, 2) < expect);
    }

    #[test]
    fn preferential_attachment_is_degree_product() {
        let g = sample();
        assert_eq!(preferential_attachment_score(&g, 1, 2), 6);
        assert_eq!(preferential_attachment_score(&g, 1, 99), 0);
    }

    #[test]
    fn top_candidates_excludes_existing_neighbors() {
        let g = sample();
        let cands = top_jaccard_candidates(&g, 1, 10);
        let ids: Vec<i64> = cands.iter().map(|(id, _)| *id).collect();
        assert!(ids.contains(&2), "distance-2 peer");
        assert!(!ids.contains(&3) && !ids.contains(&4), "already neighbors");
        assert!(!ids.contains(&1), "not itself");
        // 2 is the best candidate.
        assert_eq!(cands[0].0, 2);
    }

    #[test]
    fn self_entries_do_not_inflate_scores() {
        let mut g = sample();
        g.add_edge(1, 1);
        g.add_edge(2, 2);
        assert_eq!(common_neighbors(&g, 1, 2), 2, "self-loops excluded");
    }
}
