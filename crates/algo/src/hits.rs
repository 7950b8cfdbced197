//! HITS (hubs and authorities) — one of the "various other node centrality
//! measures" the paper's demo offers for finding experts (§4.1 mentions
//! "PageRank, Hits").

use ringo_concurrent::parallel::parallel_for_each_chunk_mut;
use ringo_graph::{DirectedTopology, NodeId};

/// Hub and authority score of one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HitsScores {
    /// Hub score: points at good authorities.
    pub hub: f64,
    /// Authority score: pointed at by good hubs.
    pub authority: f64,
}

/// Runs the HITS algorithm for `iterations` rounds with L2 normalization,
/// returning `(id, scores)` pairs in slot order.
pub fn hits<G: DirectedTopology>(
    g: &G,
    iterations: usize,
    threads: usize,
) -> Vec<(NodeId, HitsScores)> {
    let n_slots = g.n_slots();
    if g.node_count() == 0 {
        return Vec::new();
    }
    let live: Vec<bool> = (0..n_slots).map(|s| g.slot_id(s).is_some()).collect();
    let mut hub: Vec<f64> = live.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
    let mut auth = hub.clone();
    let mut next = vec![0.0f64; n_slots];

    for _ in 0..iterations {
        // authority[v] = sum of hub[u] over in-neighbors u.
        {
            let hub_ref = &hub;
            let live_ref = &live;
            parallel_for_each_chunk_mut(&mut next, threads, |_, start, chunk| {
                for (off, out) in chunk.iter_mut().enumerate() {
                    let s = start + off;
                    *out = if live_ref[s] {
                        g.in_row(s).iter().map(|&u| hub_ref[u as usize]).sum()
                    } else {
                        0.0
                    };
                }
            });
        }
        normalize(&mut next);
        std::mem::swap(&mut auth, &mut next);

        // hub[v] = sum of authority[w] over out-neighbors w.
        {
            let auth_ref = &auth;
            let live_ref = &live;
            parallel_for_each_chunk_mut(&mut next, threads, |_, start, chunk| {
                for (off, out) in chunk.iter_mut().enumerate() {
                    let s = start + off;
                    *out = if live_ref[s] {
                        g.out_row(s).iter().map(|&w| auth_ref[w as usize]).sum()
                    } else {
                        0.0
                    };
                }
            });
        }
        normalize(&mut next);
        std::mem::swap(&mut hub, &mut next);
    }

    (0..n_slots)
        .filter_map(|s| {
            g.slot_id(s).map(|id| {
                (
                    id,
                    HitsScores {
                        hub: hub[s],
                        authority: auth[s],
                    },
                )
            })
        })
        .collect()
}

fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    fn score_of(res: &[(NodeId, HitsScores)], id: NodeId) -> HitsScores {
        res.iter().find(|(n, _)| *n == id).unwrap().1
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
        let hub_norm: f64 = res.iter().map(|(_, s)| s.hub * s.hub).sum();
        let auth_norm: f64 = res.iter().map(|(_, s)| s.authority * s.authority).sum();
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
        let a = hits(&g, 15, 1);
        let b = hits(&g, 15, 4);
        for ((ia, sa), (ib, sb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert!((sa.hub - sb.hub).abs() < 1e-12);
            assert!((sa.authority - sb.authority).abs() < 1e-12);
        }
    }
}
