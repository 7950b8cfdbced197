//! Forest Fire graph generator (Leskovec, Kleinberg & Faloutsos) — the
//! signature SNAP model reproducing densification and shrinking
//! diameters in evolving networks.
//!
//! Each arriving node picks a random "ambassador", links to it, then
//! recursively "burns" through the ambassador's neighborhood: at each
//! burned node it links to a geometrically distributed number of that
//! node's out-neighbors (forward burning, ratio `p`) and in-neighbors
//! (backward burning, ratio `p * backward`), never revisiting a node.

use ringo_graph::{DirectedGraph, NodeId};
use ringo_rng::Rng64;

/// Parameters for [`forest_fire`].
#[derive(Clone, Copy, Debug)]
pub struct ForestFireConfig {
    /// Number of nodes to grow.
    pub nodes: usize,
    /// Forward burning probability (paper-typical 0.2–0.4; higher =
    /// denser). Must be in `[0, 1)`.
    pub forward: f64,
    /// Backward burning ratio relative to `forward`.
    pub backward: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestFireConfig {
    fn default() -> Self {
        Self {
            nodes: 1_000,
            forward: 0.35,
            backward: 0.32,
            seed: 42,
        }
    }
}

/// Grows a Forest Fire graph. Node ids are `0..nodes` in arrival order,
/// so edges always point from later nodes to earlier ones or along
/// burned paths.
pub fn forest_fire(config: &ForestFireConfig) -> DirectedGraph {
    assert!(
        (0.0..1.0).contains(&config.forward),
        "forward burning probability must be in [0, 1)"
    );
    assert!(config.backward >= 0.0);
    let mut rng = Rng64::new(config.seed);
    let mut g = DirectedGraph::with_capacity(config.nodes);
    if config.nodes == 0 {
        return g;
    }
    g.add_node(0);
    // Geometric sample: number of failures before success with success
    // probability 1 - p, i.e. mean p / (1 - p).
    let geometric = |p: f64, rng: &mut Rng64| -> usize {
        let mut n = 0usize;
        while p > 0.0 && rng.chance(p) && n < 64 {
            n += 1;
        }
        n
    };

    let mut visited: Vec<bool> = Vec::new();
    for v in 1..config.nodes {
        let v = v as NodeId;
        g.add_node(v);
        let ambassador = rng.range_i64(0..v);
        visited.clear();
        visited.resize(v as usize + 1, false);
        visited[v as usize] = true;
        let mut frontier = vec![ambassador];
        visited[ambassador as usize] = true;
        while let Some(w) = frontier.pop() {
            g.add_edge(v, w);
            let forward_n = geometric(config.forward, &mut rng);
            let backward_n = geometric(config.forward * config.backward, &mut rng);
            for (nbrs, count) in [
                (g.out_nbrs(w).collect::<Vec<_>>(), forward_n),
                (g.in_nbrs(w).collect(), backward_n),
            ] {
                // Sample `count` unvisited neighbors without replacement.
                let mut candidates: Vec<NodeId> =
                    nbrs.into_iter().filter(|&x| !visited[x as usize]).collect();
                for _ in 0..count.min(candidates.len()) {
                    let i = rng.below(candidates.len());
                    let burned = candidates.swap_remove(i);
                    visited[burned as usize] = true;
                    frontier.push(burned);
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_requested_nodes_and_is_connected_to_the_past() {
        let g = forest_fire(&ForestFireConfig {
            nodes: 300,
            ..Default::default()
        });
        assert_eq!(g.node_count(), 300);
        // Every node except the first has at least one out-edge, and all
        // edges point at previously arrived (smaller-id) nodes.
        for v in 1..300i64 {
            assert!(g.out_degree(v).unwrap() >= 1, "node {v} has no links");
        }
        for (s, d) in g.edges() {
            assert!(d < s, "edge {s}->{d} must point into the past");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ForestFireConfig {
            nodes: 200,
            ..Default::default()
        };
        let a = forest_fire(&cfg);
        let b = forest_fire(&cfg);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
        let c = forest_fire(&ForestFireConfig { seed: 1, ..cfg });
        let ec: Vec<_> = c.edges().collect();
        assert_ne!(ea, ec);
    }

    #[test]
    fn higher_forward_probability_densifies() {
        let sparse = forest_fire(&ForestFireConfig {
            nodes: 400,
            forward: 0.1,
            ..Default::default()
        });
        let dense = forest_fire(&ForestFireConfig {
            nodes: 400,
            forward: 0.5,
            ..Default::default()
        });
        assert!(
            dense.edge_count() > 2 * sparse.edge_count(),
            "dense {} vs sparse {}",
            dense.edge_count(),
            sparse.edge_count()
        );
    }

    #[test]
    fn zero_forward_gives_a_tree() {
        let g = forest_fire(&ForestFireConfig {
            nodes: 100,
            forward: 0.0,
            backward: 0.0,
            ..Default::default()
        });
        assert_eq!(g.edge_count(), 99, "one ambassador link per arrival");
    }

    #[test]
    #[should_panic(expected = "burning probability")]
    fn invalid_probability_rejected() {
        forest_fire(&ForestFireConfig {
            forward: 1.0,
            ..Default::default()
        });
    }
}
