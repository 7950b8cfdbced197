//! Random walks over directed graphs: plain walks, restart walks, and a
//! Monte-Carlo personalized-PageRank estimator built on them.

use ringo_graph::{DirectedTopology, NodeId, NodeValues};

/// Deterministic xorshift64* generator so walks are reproducible.
#[derive(Clone, Debug)]
pub struct WalkRng(u64);

impl WalkRng {
    /// Creates a generator from a seed (0 is mapped to a fixed non-zero).
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() as f64 / u64::MAX as f64) < p
    }
}

/// One random walk of at most `len` steps from `start` over out-edges,
/// stopping early at a node with no out-neighbors. The returned path
/// includes the start node. Empty when `start` is absent.
pub fn random_walk<G: DirectedTopology>(
    g: &G,
    start: NodeId,
    len: usize,
    rng: &mut WalkRng,
) -> Vec<NodeId> {
    let mut path = Vec::with_capacity(len + 1);
    let mut slot = match g.slot_of(start) {
        Some(s) => s,
        None => return path,
    };
    path.push(start);
    for _ in 0..len {
        let nbrs = g.out_row(slot);
        if nbrs.is_empty() {
            break;
        }
        slot = nbrs[rng.below(nbrs.len())] as usize;
        path.push(g.slot_id(slot).expect("a row names live slots"));
    }
    path
}

/// Monte-Carlo personalized PageRank: runs `walks` restart walks from
/// `seed` (restart probability `1 - damping`, also restarting at dead
/// ends) and returns the visited nodes' visit frequencies, which sum to 1,
/// as a slot-ordered column. A cheap, parallel-friendly approximation of
/// [`crate::eigen::personalized_pagerank`].
pub fn approximate_ppr<G: DirectedTopology>(
    g: &G,
    seed: NodeId,
    damping: f64,
    walks: usize,
    max_steps: usize,
    rng: &mut WalkRng,
) -> NodeValues<f64> {
    let Some(seed_slot) = g.slot_of(seed) else {
        return g.node_values(Vec::new(), 0, |_| true);
    };
    let mut visits = vec![0u64; g.n_slots()];
    let mut total = 0u64;
    for _ in 0..walks {
        let mut slot = seed_slot;
        for _ in 0..max_steps {
            visits[slot] += 1;
            total += 1;
            let nbrs = g.out_row(slot);
            slot = if nbrs.is_empty() || !rng.chance(damping) {
                seed_slot
            } else {
                nbrs[rng.below(nbrs.len())] as usize
            };
        }
    }
    let visited = visits.iter().filter(|&&v| v > 0).count();
    let freq = visits
        .into_iter()
        .map(|v| v as f64 / total as f64)
        .collect();
    g.node_values(freq, visited, |&f| f > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::personalized_pagerank;
    use crate::pagerank::PageRankConfig;
    use ringo_graph::DirectedGraph;

    #[test]
    fn walk_follows_edges_and_stops_at_sinks() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3); // 3 is a sink
        let mut rng = WalkRng::new(7);
        let path = random_walk(&g, 1, 10, &mut rng);
        assert_eq!(path, vec![1, 2, 3]);
        for w in path.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn walk_from_missing_node_is_empty() {
        let g = DirectedGraph::new();
        let mut rng = WalkRng::new(1);
        assert!(random_walk(&g, 5, 10, &mut rng).is_empty());
    }

    #[test]
    fn walks_are_deterministic_per_seed() {
        let mut g = DirectedGraph::new();
        for i in 0..20i64 {
            g.add_edge(i, (i + 1) % 20);
            g.add_edge(i, (i + 5) % 20);
        }
        let a = random_walk(&g, 0, 50, &mut WalkRng::new(9));
        let b = random_walk(&g, 0, 50, &mut WalkRng::new(9));
        assert_eq!(a, b);
        let c = random_walk(&g, 0, 50, &mut WalkRng::new(10));
        assert_ne!(a, c, "different seed, different walk (overwhelmingly)");
    }

    #[test]
    fn approximate_ppr_tracks_exact_ppr_ordering() {
        // Clique A {0..3} + clique B {10..13}, weak bridge; seed in A.
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
        let approx = approximate_ppr(&g, 0, 0.85, 2_000, 20, &mut WalkRng::new(42));
        let exact = personalized_pagerank(
            &g,
            &[0],
            &PageRankConfig {
                iterations: 60,
                threads: 1,
                ..PageRankConfig::default()
            },
        );
        let of = |res: &NodeValues<f64>, id: i64| res.get(id).copied().unwrap_or(0.0);
        // Mass concentrates in clique A in both.
        let a_mass_exact: f64 = (0..4).map(|v| of(&exact, v)).sum();
        let a_mass_approx: f64 = (0..4).map(|v| of(&approx, v)).sum();
        assert!(a_mass_exact > 0.7);
        assert!(a_mass_approx > 0.7);
        // Seed is the top node in both.
        let top_approx = approx.iter().max_by(|x, y| x.1.total_cmp(y.1)).unwrap().0;
        assert_eq!(top_approx, 0);
    }

    #[test]
    fn ppr_frequencies_sum_to_one() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        let f = approximate_ppr(&g, 1, 0.5, 100, 10, &mut WalkRng::new(3));
        let sum: f64 = f.values().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
