//! Spectral-flavored centralities: eigenvector centrality and
//! personalized PageRank (random walk with restart).

use crate::pagerank::PageRankConfig;
use ringo_concurrent::parallel::parallel_for_each_chunk_mut;
use ringo_graph::{DirectedTopology, Direction, NodeId};

/// Eigenvector centrality via power iteration over in-edges (a node is
/// central when central nodes point at it), with L2 normalization each
/// round. Returns `(id, score)` in slot order; converges when the L1
/// change drops below `tol` or after `max_iters`.
pub fn eigenvector_centrality<G: DirectedTopology>(
    g: &G,
    max_iters: usize,
    tol: f64,
    threads: usize,
) -> Vec<(NodeId, f64)> {
    let n_slots = g.n_slots();
    if g.node_count() == 0 {
        return Vec::new();
    }
    let live: Vec<bool> = (0..n_slots).map(|s| g.slot_id(s).is_some()).collect();
    let mut score: Vec<f64> = live.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
    normalize_l2(&mut score);
    let mut next = vec![0.0f64; n_slots];
    for _ in 0..max_iters {
        {
            let score_ref = &score;
            let live_ref = &live;
            parallel_for_each_chunk_mut(&mut next, threads, |_, start, chunk| {
                for (off, out) in chunk.iter_mut().enumerate() {
                    let s = start + off;
                    *out = if live_ref[s] {
                        let pulled: f64 = g.in_row(s).iter().map(|&u| score_ref[u as usize]).sum();
                        // Shifted iteration (A + I): same eigenvectors,
                        // but converges on bipartite graphs where plain
                        // power iteration oscillates.
                        pulled + score_ref[s]
                    } else {
                        0.0
                    };
                }
            });
        }
        let norm_before: f64 = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm_before == 0.0 {
            // No edges: centrality degenerates to uniform over live nodes.
            break;
        }
        normalize_l2(&mut next);
        let delta: f64 = score.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut score, &mut next);
        if delta < tol {
            break;
        }
    }
    (0..n_slots)
        .filter_map(|s| g.slot_id(s).map(|id| (id, score[s])))
        .collect()
}

/// Personalized PageRank (random walk with restart): like PageRank, but
/// both the restart mass and the dangling mass return to the `seeds` set
/// (uniformly across seeds). Scores sum to 1. Seeds absent from the graph
/// are ignored; returns an empty vector when no seed is present.
pub fn personalized_pagerank<G: DirectedTopology>(
    g: &G,
    seeds: &[NodeId],
    config: &PageRankConfig,
) -> Vec<(NodeId, f64)> {
    let n_slots = g.n_slots();
    let seed_slots: Vec<usize> = seeds.iter().filter_map(|&s| g.slot_of(s)).collect();
    if seed_slots.is_empty() {
        return Vec::new();
    }
    let seed_mass = 1.0 / seed_slots.len() as f64;
    let mut is_seed = vec![false; n_slots];
    for &s in &seed_slots {
        is_seed[s] = true;
    }
    let live: Vec<bool> = (0..n_slots).map(|s| g.slot_id(s).is_some()).collect();
    let out_deg: Vec<u32> = (0..n_slots).map(|s| g.degree(s, Direction::Out)).collect();

    let mut rank = vec![0.0f64; n_slots];
    for &s in &seed_slots {
        rank[s] = seed_mass;
    }
    let mut contrib = vec![0.0f64; n_slots];
    let mut next = vec![0.0f64; n_slots];
    for _ in 0..config.iterations {
        for s in 0..n_slots {
            contrib[s] = if live[s] && out_deg[s] > 0 {
                rank[s] / f64::from(out_deg[s])
            } else {
                0.0
            };
        }
        let dangling: f64 = (0..n_slots)
            .filter(|&s| live[s] && out_deg[s] == 0)
            .map(|s| rank[s])
            .sum();
        {
            let contrib_ref = &contrib;
            let live_ref = &live;
            let is_seed_ref = &is_seed;
            parallel_for_each_chunk_mut(&mut next, config.threads, |_, start, chunk| {
                for (off, out) in chunk.iter_mut().enumerate() {
                    let s = start + off;
                    if !live_ref[s] {
                        *out = 0.0;
                        continue;
                    }
                    let walk: f64 = g.in_row(s).iter().map(|&u| contrib_ref[u as usize]).sum();
                    let restart = if is_seed_ref[s] {
                        ((1.0 - config.damping) + config.damping * dangling) * seed_mass
                    } else {
                        0.0
                    };
                    *out = restart + config.damping * walk;
                }
            });
        }
        std::mem::swap(&mut rank, &mut next);
    }
    (0..n_slots)
        .filter_map(|s| g.slot_id(s).map(|id| (id, rank[s])))
        .collect()
}

fn normalize_l2(v: &mut [f64]) {
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

    fn of(res: &[(NodeId, f64)], id: NodeId) -> f64 {
        res.iter().find(|(n, _)| *n == id).unwrap().1
    }

    #[test]
    fn eigenvector_star_center_highest() {
        let mut g = DirectedGraph::new();
        for i in 1..=8 {
            g.add_edge(i, 0);
            g.add_edge(0, i); // make it strongly connected so EV converges
        }
        let ev = eigenvector_centrality(&g, 100, 1e-12, 1);
        let center = of(&ev, 0);
        for i in 1..=8 {
            assert!(center > of(&ev, i));
        }
        let norm: f64 = ev.iter().map(|(_, s)| s * s).sum();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eigenvector_parallel_matches_sequential() {
        let mut g = DirectedGraph::new();
        let mut x = 1u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = (x >> 33) % 50;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = (x >> 33) % 50;
            g.add_edge(s as i64, d as i64);
        }
        let a = eigenvector_centrality(&g, 30, 0.0, 1);
        let b = eigenvector_centrality(&g, 30, 0.0, 4);
        for ((ia, va), (ib, vb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert!((va - vb).abs() < 1e-12);
        }
    }

    #[test]
    fn ppr_concentrates_mass_near_seed() {
        // Two far-apart cliques bridged weakly; a seed in clique A should
        // rank A's members above B's.
        let mut g = DirectedGraph::new();
        for a in 0..4i64 {
            for b in 0..4 {
                if a != b {
                    g.add_edge(a, b);
                }
            }
        }
        for a in 10..14i64 {
            for b in 10..14 {
                if a != b {
                    g.add_edge(a, b);
                }
            }
        }
        g.add_edge(3, 10);
        g.add_edge(10, 3);
        let ppr = personalized_pagerank(
            &g,
            &[0],
            &PageRankConfig {
                iterations: 50,
                threads: 1,
                ..PageRankConfig::default()
            },
        );
        let total: f64 = ppr.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        for a in 0..4 {
            for b in 10..14 {
                assert!(of(&ppr, a) > of(&ppr, b), "{a} vs {b}");
            }
        }
        assert!(of(&ppr, 0) >= of(&ppr, 1), "seed itself ranks highest in A");
    }

    #[test]
    fn ppr_missing_seeds() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        assert!(personalized_pagerank(&g, &[99], &PageRankConfig::default()).is_empty());
        let some = personalized_pagerank(&g, &[99, 1], &PageRankConfig::default());
        assert_eq!(some.len(), 2);
    }

    #[test]
    fn ppr_multiple_seeds_split_restart() {
        let mut g = DirectedGraph::new();
        g.add_node(1);
        g.add_node(2);
        g.add_node(3);
        // No edges at all: all mass keeps restarting into the seeds.
        let ppr = personalized_pagerank(
            &g,
            &[1, 2],
            &PageRankConfig {
                iterations: 30,
                threads: 1,
                ..PageRankConfig::default()
            },
        );
        assert!((of(&ppr, 1) - 0.5).abs() < 1e-9);
        assert!((of(&ppr, 2) - 0.5).abs() < 1e-9);
        assert_eq!(of(&ppr, 3), 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = DirectedGraph::new();
        assert!(eigenvector_centrality(&g, 10, 1e-9, 2).is_empty());
    }
}
