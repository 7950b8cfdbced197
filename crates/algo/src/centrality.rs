//! Node centrality measures: degree, closeness, betweenness.
//!
//! These are among the "various other node centrality measures" the demo
//! scenario (§4.1) lets an analyst swap in for PageRank when ranking
//! experts.

use crate::bfs::{bfs_distances, Direction};
use crate::frontier::{FrontierEngine, FrontierState};
use ringo_graph::{DirectedTopology, NodeId, NodeValues};

/// Degree centrality: `deg(v) / (n - 1)`, using out-, in-, or total degree
/// per `dir`, as a slot-ordered column.
pub fn degree_centrality<G: DirectedTopology>(g: &G, dir: Direction) -> NodeValues<f64> {
    let n = g.node_count();
    let denom = if n > 1 { (n - 1) as f64 } else { 1.0 };
    let scores = (0..g.n_slots())
        .map(|s| {
            let d = g.out_row(s).len() * usize::from(dir != Direction::In)
                + g.in_row(s).len() * usize::from(dir != Direction::Out);
            d as f64 / denom
        })
        .collect();
    g.node_values(scores, n, |_| true)
}

/// Closeness centrality of one node: `(r - 1) / total_distance`, scaled by
/// `(r - 1) / (n - 1)` for disconnected graphs (Wasserman–Faust), where
/// `r` is the number of nodes reachable from `id`. Returns 0 when nothing
/// is reachable.
pub fn closeness_centrality<G: DirectedTopology>(g: &G, id: NodeId, dir: Direction) -> f64 {
    let dist = bfs_distances(g, id, dir);
    let r = dist.len(); // includes the source at distance 0
    if r <= 1 {
        return 0.0;
    }
    let total: u64 = dist.iter().map(|(_, &d)| u64::from(d)).sum();
    let n = g.node_count();
    let reach = (r - 1) as f64;
    (reach / total as f64) * (reach / (n - 1) as f64)
}

/// Harmonic centrality of one node: `sum over reachable v of 1/dist(v)`,
/// normalized by `n - 1`. Unlike closeness it is well-behaved on
/// disconnected graphs (unreachable nodes simply contribute 0).
pub fn harmonic_centrality<G: DirectedTopology>(g: &G, id: NodeId, dir: Direction) -> f64 {
    let dist = bfs_distances(g, id, dir);
    let n = g.node_count();
    if n <= 1 {
        return 0.0;
    }
    let total: f64 = dist
        .iter()
        .filter(|(_, &d)| d > 0)
        .map(|(_, &d)| 1.0 / f64::from(d))
        .sum();
    total / (n - 1) as f64
}

/// Exact betweenness centrality via Brandes' algorithm over out-edges.
/// Pass `normalized = true` to divide by `(n-1)(n-2)` (directed
/// normalization). Returns a slot-ordered column.
///
/// Runs in `O(V * E)`; for large graphs prefer
/// [`betweenness_centrality_sampled`]. `threads` run each source's BFS;
/// the sources are taken one at a time, in slot order, so the sums are
/// the same at any thread count.
pub fn betweenness_centrality<G: DirectedTopology>(
    g: &G,
    normalized: bool,
    threads: usize,
) -> NodeValues<f64> {
    betweenness_centrality_sampled(g, g.node_count(), normalized, threads)
}

/// Approximate betweenness from a sample of source nodes (every
/// `ceil(n / samples)`-th live slot), scaled up to estimate the exact
/// values; with `samples >= n` it is the exact betweenness.
pub fn betweenness_centrality_sampled<G: DirectedTopology>(
    g: &G,
    samples: usize,
    normalized: bool,
    threads: usize,
) -> NodeValues<f64> {
    let n_live = g.node_count();
    if n_live == 0 || samples == 0 {
        return g.node_values(Vec::new(), 0, |_| true);
    }
    let sources: Vec<usize> = (0..g.n_slots())
        .filter(|&s| g.slot_id(s).is_some())
        .step_by(n_live.div_ceil(samples))
        .collect();
    // Few sources, whole graph each: parallelize *inside* the per-source
    // BFS via the frontier engine rather than across sources. The sums
    // are scaled up to the whole population.
    let scale = n_live as f64 / sources.len() as f64;
    let mut sums = brandes(g, &sources, scale, threads);
    if normalized && n_live > 2 {
        let norm = 1.0 / ((n_live - 1) as f64 * (n_live - 2) as f64);
        sums.iter_mut().for_each(|x| *x *= norm);
    }
    g.node_values(sums, n_live, |_| true)
}

/// Brandes' accumulation driven by the shared frontier engine: the
/// per-source BFS (the dominant cost) runs through the
/// direction-optimizing engine with `threads` workers, and the
/// sigma/delta sweeps walk the engine's level buckets
/// (`FrontierState::level_starts`) with *pull* scans over the graph's
/// rows — path counts from in-neighbors one level up, dependencies from
/// out-neighbors one level down — so no predecessor lists are
/// materialized. Returns each slot's dependency sum over `sources`,
/// times `scale`.
fn brandes<G: DirectedTopology>(g: &G, sources: &[usize], scale: f64, threads: usize) -> Vec<f64> {
    let n_slots = g.n_slots();
    let mut centrality = vec![0.0f64; n_slots];
    let eng = FrontierEngine::with_threads(g, Direction::Out, threads);
    let mut state = FrontierState::new(n_slots);
    let mut sigma = vec![0.0f64; n_slots];
    let mut delta = vec![0.0f64; n_slots];

    for &s in sources {
        let levels = eng.run_into(s, &mut state) as usize;
        sigma[s] = 1.0;
        let bucket = |l: usize| state.level_starts[l] as usize..state.level_starts[l + 1] as usize;
        // Forward: path counts level by level. A node's count is the sum
        // over in-neighbors exactly one level shallower (the in-rows — no
        // hashing).
        for l in 1..levels {
            let d0 = l as u32 - 1;
            for i in bucket(l) {
                let w = state.visited[i] as usize;
                let mut sw = 0.0;
                for &u in g.in_row(w) {
                    if state.dist[u as usize] == d0 {
                        sw += sigma[u as usize];
                    }
                }
                sigma[w] = sw;
            }
        }
        // Backward: dependency accumulation, deepest level first. A
        // node's delta pulls from out-neighbors one level deeper (the
        // deepest level keeps delta 0 — it has no successors).
        for l in (0..levels.saturating_sub(1)).rev() {
            let d1 = l as u32 + 1;
            for i in bucket(l) {
                let v = state.visited[i] as usize;
                let mut dv = 0.0;
                for &w in g.out_row(v) {
                    let w = w as usize;
                    if state.dist[w] == d1 {
                        dv += sigma[v] / sigma[w] * (1.0 + delta[w]);
                    }
                }
                delta[v] = dv;
            }
        }
        for &w in &state.visited {
            let w = w as usize;
            if w != s {
                centrality[w] += delta[w] * scale;
            }
            sigma[w] = 0.0;
            delta[w] = 0.0;
        }
        state.reset();
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    fn of(res: &NodeValues<f64>, id: NodeId) -> f64 {
        *res.get(id).unwrap()
    }

    #[test]
    fn degree_centrality_directions() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(3, 2);
        let out = degree_centrality(&g, Direction::Out);
        let inn = degree_centrality(&g, Direction::In);
        assert_eq!(of(&out, 1), 0.5);
        assert_eq!(of(&out, 2), 0.0);
        assert_eq!(of(&inn, 2), 1.0);
    }

    #[test]
    fn closeness_on_path() {
        let mut g = DirectedGraph::new();
        // Undirected path 0-1-2 via Both.
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let middle = closeness_centrality(&g, 1, Direction::Both);
        let end = closeness_centrality(&g, 0, Direction::Both);
        assert!(middle > end);
        assert!(
            (middle - 1.0).abs() < 1e-12,
            "middle reaches both at dist 1"
        );
    }

    #[test]
    fn closeness_of_isolated_node_is_zero() {
        let mut g = DirectedGraph::new();
        g.add_node(5);
        g.add_edge(1, 2);
        assert_eq!(closeness_centrality(&g, 5, Direction::Both), 0.0);
    }

    #[test]
    fn harmonic_handles_disconnection() {
        let mut g = DirectedGraph::new();
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_node(9); // unreachable island
                       // From 0: dist 1 to node 1, dist 2 to node 2, node 9 unreachable.
        let h = harmonic_centrality(&g, 0, Direction::Out);
        assert!((h - (1.0 + 0.5) / 3.0).abs() < 1e-12);
        assert_eq!(harmonic_centrality(&g, 9, Direction::Out), 0.0);
        // Closeness and harmonic agree on ordering here.
        let c0 = closeness_centrality(&g, 0, Direction::Out);
        let c2 = closeness_centrality(&g, 2, Direction::Out);
        assert!(c0 > c2);
        assert!(h > harmonic_centrality(&g, 2, Direction::Out));
    }

    #[test]
    fn betweenness_path_middle_node() {
        let mut g = DirectedGraph::new();
        // Directed path 0 -> 1 -> 2: node 1 lies on the single 0->2 path.
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let bc = betweenness_centrality(&g, false, 1);
        assert_eq!(of(&bc, 1), 1.0);
        assert_eq!(of(&bc, 0), 0.0);
        assert_eq!(of(&bc, 2), 0.0);
    }

    #[test]
    fn betweenness_splits_over_equal_paths() {
        let mut g = DirectedGraph::new();
        // Two equal-length paths 0->a->3 and 0->b->3.
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let bc = betweenness_centrality(&g, false, 1);
        assert!((of(&bc, 1) - 0.5).abs() < 1e-12);
        assert!((of(&bc, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalization_bounds_scores() {
        let mut g = DirectedGraph::new();
        for i in 0..6 {
            g.add_edge(i, i + 1);
        }
        let bc = betweenness_centrality(&g, true, 1);
        for v in bc.values() {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn parallel_betweenness_matches_sequential_exactly() {
        let mut g = DirectedGraph::new();
        let mut x = 29u64;
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = (x >> 33) % 70;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = (x >> 33) % 70;
            g.add_edge(s as i64, d as i64);
        }
        let seq = betweenness_centrality(&g, true, 1);
        for threads in [2usize, 3, 8] {
            let par = betweenness_centrality(&g, true, threads);
            assert_eq!(seq, par, "the same bits at {threads} threads");
        }
    }

    #[test]
    fn sampled_with_full_sample_matches_exact() {
        let mut g = DirectedGraph::new();
        let mut x = 17u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = (x >> 33) % 40;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = (x >> 33) % 40;
            g.add_edge(s as i64, d as i64);
        }
        let exact = betweenness_centrality(&g, false, 1);
        let sampled = betweenness_centrality_sampled(&g, g.node_count(), false, 2);
        assert_eq!(exact, sampled);
    }
}
