//! PageRank — the paper's flagship parallel kernel (Table 3) — and the
//! power iteration its personalized and weighted variants share.
//!
//! "PageRank implementation in Ringo is based on a straightforward,
//! sequential algorithm with a few OpenMP statements for parallel
//! execution." We reproduce exactly that: power iteration with damping
//! and dangling-mass redistribution, on the `Sweep`.

use crate::sweep::Sweep;
use ringo_graph::{DirectedTopology, Direction, NodeValues};

/// Parameters for [`pagerank`] and its personalized and weighted variants.
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

/// Computes PageRank scores for every node, as a slot-ordered column on
/// the graph's id index. Scores sum to 1 (up to floating-point error).
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
/// let top = pr.iter().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
/// assert_eq!(top, 0);
/// let total: f64 = pr.values().iter().sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
pub fn pagerank<G: DirectedTopology>(g: &G, config: &PageRankConfig) -> NodeValues<f64> {
    let mut sp = ringo_trace::span!("algo.pagerank");
    sp.rows_in(g.edge_count());
    let sweep = Sweep::new(g, config.threads);
    let (n, d) = (g.node_count() as f64, config.damping);
    let rank = sweep.filled(1.0 / n);
    let teleport = |dangling| (1.0 - d) / n + d * dangling / n;
    let rank = uniform_walk(g, &sweep, config, rank, teleport, |_| true);
    let out = sweep.finish(g, rank);
    sp.rows_out(out.len());
    out
}

/// The walk of [`pagerank`] and personalized PageRank: every out-edge of
/// `u` carries `rank[u] / outdeg(u)`, and a slot's pull starts from the
/// teleport term where `restarts(slot)`, from 0 elsewhere.
pub(crate) fn uniform_walk<G: DirectedTopology>(
    g: &G,
    sweep: &Sweep,
    config: &PageRankConfig,
    rank: Vec<f64>,
    teleport: impl Fn(f64) -> f64,
    restarts: impl Fn(usize) -> bool + Sync,
) -> Vec<f64> {
    let d = config.damping;
    // Out-degrees are read once, up front; the pull reads each in-row of
    // neighbour slots in place, in row order.
    let out_deg: Vec<u32> = (0..g.n_slots())
        .map(|s| g.degree(s, Direction::Out))
        .collect();
    let out = |u| f64::from(out_deg[u]);
    power_iteration(sweep, config, rank, out, 1.0, teleport, |s, t, contrib| {
        let mut acc = 0.0;
        for &u in g.in_row(s) {
            acc += contrib[u as usize];
        }
        let t = if restarts(s) { t } else { 0.0 };
        t + d * acc
    })
}

/// The power iteration of the PageRank family. Each iteration, every live
/// slot `u` shares `scale * rank[u] / out(u)` along each out-edge (none
/// when `out(u) <= 0`: `u` is dangling); `teleport` turns the dangling
/// rank into a term `t`; and every live slot's next rank is
/// `pull(slot, t, shares)`. Stops after `config.iterations`, or once the
/// L1 change falls below `config.tolerance`.
pub(crate) fn power_iteration(
    sweep: &Sweep,
    config: &PageRankConfig,
    mut rank: Vec<f64>,
    out: impl Fn(usize) -> f64 + Sync,
    scale: f64,
    teleport: impl Fn(f64) -> f64,
    pull: impl Fn(usize, f64, &[f64]) -> f64 + Sync,
) -> Vec<f64> {
    // The dangling slots, ascending: their rank is summed in slot order
    // without a pass over every slot.
    let dangling = sweep.slots(|u| out(u) <= 0.0);
    let mut contrib = vec![0.0f64; rank.len()];
    let mut next = vec![0.0f64; rank.len()];
    for _ in 0..config.iterations {
        sweep.pull(&mut contrib, |u| {
            let o = out(u);
            if o <= 0.0 {
                0.0
            } else {
                scale * rank[u] / o
            }
        });
        let t = teleport(dangling.iter().fold(0.0, |acc, &u| acc + rank[u as usize]));
        sweep.pull(&mut next, |s| pull(s, t, &contrib));
        let converged = config
            .tolerance
            .is_some_and(|tol| sweep.sum(|s| (rank[s] - next[s]).abs()) < tol);
        std::mem::swap(&mut rank, &mut next);
        if converged {
            break;
        }
    }
    rank
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

    fn rank_of(prs: &NodeValues<f64>, id: i64) -> f64 {
        *prs.get(id).unwrap()
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
        assert!((pr.values()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ranks_sum_to_one() {
        let mut g = DirectedGraph::new();
        for (s, d) in [(1, 2), (2, 3), (3, 1), (4, 1), (2, 4)] {
            g.add_edge(s, d);
        }
        let pr = pagerank(&g, &config(1));
        let total: f64 = pr.values().iter().sum();
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
        for r in pr.values() {
            assert!((r - 1.0 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn dangling_nodes_do_not_leak_mass() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2); // 2 is dangling
        let pr = pagerank(&g, &config(1));
        let total: f64 = pr.values().iter().sum();
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
        assert_eq!(seq, par, "the same bits at any thread count");
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
        for (id, r) in a.iter() {
            let rb = rank_of(&b, id);
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
        for r in pr.values() {
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
        let total: f64 = pr.values().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
