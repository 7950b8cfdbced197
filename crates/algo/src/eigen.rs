//! Spectral-flavored centralities: eigenvector centrality and
//! personalized PageRank (random walk with restart).

use crate::pagerank::{uniform_walk, PageRankConfig};
use crate::sweep::Sweep;
use ringo_graph::{DirectedTopology, NodeId, NodeValues};

/// Eigenvector centrality via power iteration over in-edges (a node is
/// central when central nodes point at it), with L2 normalization each
/// round. Returns a slot-ordered column; converges when the L1 change
/// drops below `tol` or after `max_iters`.
pub fn eigenvector_centrality<G: DirectedTopology>(
    g: &G,
    max_iters: usize,
    tol: f64,
    threads: usize,
) -> NodeValues<f64> {
    let sweep = Sweep::new(g, threads);
    let mut score = sweep.filled(1.0);
    sweep.unit_l2(&mut score);
    let mut next = vec![0.0f64; g.n_slots()];
    for _ in 0..max_iters {
        sweep.pull(&mut next, |s| {
            let pulled: f64 = g.in_row(s).iter().map(|&u| score[u as usize]).sum();
            // Shifted iteration (A + I): same eigenvectors, but converges
            // on bipartite graphs where plain power iteration oscillates.
            pulled + score[s]
        });
        if sweep.unit_l2(&mut next) == 0.0 {
            // No edges: centrality degenerates to uniform over live nodes.
            break;
        }
        let delta = sweep.sum(|s| (score[s] - next[s]).abs());
        std::mem::swap(&mut score, &mut next);
        if delta < tol {
            break;
        }
    }
    drop(next);
    sweep.finish(g, score)
}

/// Personalized PageRank (random walk with restart): like PageRank, but
/// both the restart mass and the dangling mass return to the `seeds` set
/// (uniformly across seeds). Scores sum to 1. Seeds absent from the graph
/// are ignored; the column is empty when no seed is present.
pub fn personalized_pagerank<G: DirectedTopology>(
    g: &G,
    seeds: &[NodeId],
    config: &PageRankConfig,
) -> NodeValues<f64> {
    let mut is_seed = vec![false; g.n_slots()];
    seeds
        .iter()
        .filter_map(|&id| g.slot_of(id))
        .for_each(|s| is_seed[s] = true);
    let n_seeds = is_seed.iter().filter(|&&x| x).count();
    if n_seeds == 0 {
        return g.node_values(Vec::new(), 0, |_| true);
    }
    let (seed_mass, d) = (1.0 / n_seeds as f64, config.damping);
    let sweep = Sweep::new(g, config.threads);
    let rank = is_seed
        .iter()
        .map(|&x| if x { seed_mass } else { 0.0 })
        .collect();
    let teleport = |dangling| ((1.0 - d) + d * dangling) * seed_mass;
    let rank = uniform_walk(g, &sweep, config, rank, teleport, |s| is_seed[s]);
    drop(is_seed);
    sweep.finish(g, rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    fn of(res: &NodeValues<f64>, id: NodeId) -> f64 {
        *res.get(id).unwrap()
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
        let norm: f64 = ev.values().iter().map(|s| s * s).sum();
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
        assert_eq!(a, eigenvector_centrality(&g, 30, 0.0, 4));
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
        let total: f64 = ppr.values().iter().sum();
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
