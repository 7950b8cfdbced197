//! PageRank — the paper's flagship parallel kernel (Table 3).
//!
//! "PageRank implementation in Ringo is based on a straightforward,
//! sequential algorithm with a few OpenMP statements for parallel
//! execution." We reproduce exactly that: classic power iteration with
//! damping, dangling-mass redistribution, and a parallel loop over nodes
//! where each worker writes a disjoint range of the next rank vector —
//! contention-free, no locks.

use ringo_concurrent::parallel::parallel_for_each_chunk_mut;
use ringo_concurrent::parallel_reduce;
use ringo_graph::{DirectedTopology, Direction, NodeId};

/// Parameters for [`pagerank`].
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Damping factor (the paper-era standard 0.85).
    pub damping: f64,
    /// Number of power iterations (the paper times 10).
    pub iterations: usize,
    /// Optional early-exit threshold on the L1 rank change per iteration.
    pub tolerance: Option<f64>,
    /// Worker threads (1 = sequential).
    pub threads: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            iterations: 10,
            tolerance: None,
            threads: ringo_concurrent::num_threads(),
        }
    }
}

/// Computes PageRank scores for every node, returned as `(id, score)`
/// pairs in slot order. Scores sum to 1 (up to floating-point error).
///
/// ```
/// use ringo_algo::{pagerank, PageRankConfig};
/// use ringo_graph::DirectedGraph;
///
/// let mut g = DirectedGraph::new();
/// for follower in 1..=5 {
///     g.add_edge(follower, 0); // everyone links to node 0
/// }
/// g.add_edge(0, 1);
/// let config = PageRankConfig { iterations: 100, threads: 1, ..Default::default() };
/// let pr = pagerank(&g, &config);
/// let top = pr.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
/// assert_eq!(top, 0);
/// let total: f64 = pr.iter().map(|(_, s)| s).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
pub fn pagerank<G: DirectedTopology>(g: &G, config: &PageRankConfig) -> Vec<(NodeId, f64)> {
    let mut sp = ringo_trace::span!("algo.pagerank");
    sp.rows_in(g.edge_count());
    let n_slots = g.n_slots();
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let init = 1.0 / n as f64;
    let mut rank = vec![0.0f64; n_slots];
    let mut live = vec![false; n_slots];
    for s in 0..n_slots {
        if g.slot_id(s).is_some() {
            rank[s] = init;
            live[s] = true;
        }
    }
    // The pull loop below reads each node's in-row of neighbour slots in
    // place, in adjacency order; out-degrees are read once, up front.
    let out_deg: Vec<u32> = (0..n_slots).map(|s| g.degree(s, Direction::Out)).collect();

    let mut contrib = vec![0.0f64; n_slots];
    let mut next = vec![0.0f64; n_slots];
    for _ in 0..config.iterations {
        // contrib[u] = rank[u] / outdeg[u]; dangling mass collected apart.
        {
            let rank_ref = &rank;
            let live_ref = &live;
            parallel_for_each_chunk_mut(&mut contrib, config.threads, |_, start, chunk| {
                for (off, c) in chunk.iter_mut().enumerate() {
                    let s = start + off;
                    *c = if live_ref[s] && out_deg[s] > 0 {
                        rank_ref[s] / f64::from(out_deg[s])
                    } else {
                        0.0
                    };
                }
            });
        }
        let dangling: f64 = parallel_reduce(
            n_slots,
            config.threads,
            0.0,
            |range| {
                let mut s = 0.0;
                for i in range {
                    if live[i] && out_deg[i] == 0 {
                        s += rank[i];
                    }
                }
                s
            },
            |a, b| a + b,
        );

        let base = (1.0 - config.damping) / n as f64 + config.damping * dangling / n as f64;
        {
            let contrib_ref = &contrib;
            let live_ref = &live;
            parallel_for_each_chunk_mut(&mut next, config.threads, |_, start, chunk| {
                for (off, out) in chunk.iter_mut().enumerate() {
                    let s = start + off;
                    if !live_ref[s] {
                        *out = 0.0;
                        continue;
                    }
                    let mut acc = 0.0;
                    for &us in g.in_row(s) {
                        acc += contrib_ref[us as usize];
                    }
                    *out = base + config.damping * acc;
                }
            });
        }

        if let Some(tol) = config.tolerance {
            let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut rank, &mut next);
            if delta < tol {
                break;
            }
        } else {
            std::mem::swap(&mut rank, &mut next);
        }
    }

    let out: Vec<(NodeId, f64)> = (0..n_slots)
        .filter_map(|s| g.slot_id(s).map(|id| (id, rank[s])))
        .collect();
    sp.rows_out(out.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    fn config(threads: usize) -> PageRankConfig {
        PageRankConfig {
            iterations: 50,
            threads,
            ..PageRankConfig::default()
        }
    }

    fn rank_of(prs: &[(NodeId, f64)], id: NodeId) -> f64 {
        prs.iter().find(|(n, _)| *n == id).unwrap().1
    }

    #[test]
    fn empty_graph_is_empty_result() {
        let g = DirectedGraph::new();
        assert!(pagerank(&g, &PageRankConfig::default()).is_empty());
    }

    #[test]
    fn single_node_gets_all_mass() {
        let mut g = DirectedGraph::new();
        g.add_node(7);
        let pr = pagerank(&g, &config(1));
        assert_eq!(pr.len(), 1);
        assert!((pr[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ranks_sum_to_one() {
        let mut g = DirectedGraph::new();
        for (s, d) in [(1, 2), (2, 3), (3, 1), (4, 1), (2, 4)] {
            g.add_edge(s, d);
        }
        let pr = pagerank(&g, &config(1));
        let total: f64 = pr.iter().map(|(_, r)| r).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
    }

    #[test]
    fn star_center_dominates() {
        let mut g = DirectedGraph::new();
        for leaf in 1..=10 {
            g.add_edge(leaf, 0);
        }
        let pr = pagerank(&g, &config(1));
        let center = rank_of(&pr, 0);
        for leaf in 1..=10 {
            assert!(center > 3.0 * rank_of(&pr, leaf));
        }
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let mut g = DirectedGraph::new();
        let n = 6i64;
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        let pr = pagerank(&g, &config(1));
        for (_, r) in &pr {
            assert!((r - 1.0 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn dangling_nodes_do_not_leak_mass() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2); // 2 is dangling
        let pr = pagerank(&g, &config(1));
        let total: f64 = pr.iter().map(|(_, r)| r).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(rank_of(&pr, 2) > rank_of(&pr, 1));
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut g = DirectedGraph::new();
        // Pseudo-random but deterministic digraph.
        let mut x = 12345u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (x >> 33) % 300;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = (x >> 33) % 300;
            g.add_edge(s as i64, d as i64);
        }
        let seq = pagerank(&g, &config(1));
        let par = pagerank(&g, &config(4));
        assert_eq!(seq.len(), par.len());
        for ((id_a, ra), (id_b, rb)) in seq.iter().zip(&par) {
            assert_eq!(id_a, id_b);
            assert!((ra - rb).abs() < 1e-12);
        }
    }

    #[test]
    fn owned_and_slab_graphs_agree() {
        let edges: Vec<(i64, i64)> = vec![(1, 2), (2, 3), (3, 1), (3, 4), (4, 2)];
        let mut dynamic = DirectedGraph::new();
        for &(s, d) in &edges {
            dynamic.add_edge(s, d);
        }
        // Same edges, every list a view into one shared slab.
        let slab = dynamic.induced(|_| true);
        let a = pagerank(&dynamic, &config(1));
        let b = pagerank(&slab, &config(1));
        for (id, r) in &a {
            let rb = rank_of(&b, *id);
            assert!((r - rb).abs() < 1e-12, "id {id}: {r} vs {rb}");
        }
    }

    #[test]
    fn tolerance_early_exit_converges() {
        let mut g = DirectedGraph::new();
        for i in 0..10i64 {
            g.add_edge(i, (i + 1) % 10);
        }
        let cfg = PageRankConfig {
            iterations: 10_000,
            tolerance: Some(1e-12),
            threads: 1,
            ..PageRankConfig::default()
        };
        let pr = pagerank(&g, &cfg);
        for (_, r) in pr {
            assert!((r - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn deleted_nodes_are_skipped() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.del_node(3);
        let pr = pagerank(&g, &config(2));
        assert_eq!(pr.len(), 2);
        let total: f64 = pr.iter().map(|(_, r)| r).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
