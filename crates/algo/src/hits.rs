//! HITS (hubs and authorities) — one of the "various other node centrality
//! measures" the paper's demo offers for finding experts (§4.1 mentions
//! "PageRank, Hits").

use crate::sweep::Sweep;
use ringo_graph::{DirectedTopology, NodeValues};

/// Hub and authority score of one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HitsScores {
    /// Hub score: points at good authorities.
    pub hub: f64,
    /// Authority score: pointed at by good hubs.
    pub authority: f64,
}

/// Runs the HITS algorithm for `iterations` rounds with L2 normalization,
/// returning a slot-ordered column of scores.
pub fn hits<G: DirectedTopology>(
    g: &G,
    iterations: usize,
    threads: usize,
) -> NodeValues<HitsScores> {
    let sweep = Sweep::new(g, threads);
    let mut hub = sweep.filled(1.0);
    let mut auth = hub.clone();
    let mut next = vec![0.0f64; g.n_slots()];
    for _ in 0..iterations {
        // authority[v] = sum of hub[u] over in-neighbors u.
        sweep.pull(&mut next, |s| {
            g.in_row(s).iter().map(|&u| hub[u as usize]).sum()
        });
        sweep.unit_l2(&mut next);
        std::mem::swap(&mut auth, &mut next);
        // hub[v] = sum of authority[w] over out-neighbors w.
        sweep.pull(&mut next, |s| {
            g.out_row(s).iter().map(|&w| auth[w as usize]).sum()
        });
        sweep.unit_l2(&mut next);
        std::mem::swap(&mut hub, &mut next);
    }
    drop(next);
    let scores = hub
        .into_iter()
        .zip(auth)
        .map(|(hub, authority)| HitsScores { hub, authority })
        .collect();
    sweep.finish(g, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    fn score_of(res: &NodeValues<HitsScores>, id: i64) -> HitsScores {
        *res.get(id).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = DirectedGraph::new();
        assert!(hits(&g, 10, 1).is_empty());
    }

    #[test]
    fn hub_and_authority_separate_in_bipartite_graph() {
        let mut g = DirectedGraph::new();
        // Hubs 1..3 all point at authorities 10..11.
        for h in 1..=3 {
            for a in 10..=11 {
                g.add_edge(h, a);
            }
        }
        let res = hits(&g, 30, 1);
        for h in 1..=3 {
            let s = score_of(&res, h);
            assert!(s.hub > 0.4 && s.authority < 1e-9, "hub {h}: {s:?}");
        }
        for a in 10..=11 {
            let s = score_of(&res, a);
            assert!(s.authority > 0.4 && s.hub < 1e-9, "auth {a}: {s:?}");
        }
    }

    #[test]
    fn scores_are_l2_normalized() {
        let mut g = DirectedGraph::new();
        for (s, d) in [(1, 2), (2, 3), (3, 1), (1, 3)] {
            g.add_edge(s, d);
        }
        let res = hits(&g, 25, 1);
        let hub_norm: f64 = res.values().iter().map(|s| s.hub * s.hub).sum();
        let auth_norm: f64 = res.values().iter().map(|s| s.authority * s.authority).sum();
        assert!((hub_norm - 1.0).abs() < 1e-9);
        assert!((auth_norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut g = DirectedGraph::new();
        let mut x = 99u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = (x >> 33) % 100;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = (x >> 33) % 100;
            g.add_edge(s as i64, d as i64);
        }
        assert_eq!(hits(&g, 15, 1), hits(&g, 15, 4));
    }
}
