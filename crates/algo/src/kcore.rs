//! k-core decomposition — the paper's Table 6 includes the 3-core of
//! LiveJournal as a representative sequential kernel.
//!
//! Two peels over the same dense per-slot degrees. [`core_numbers`] is
//! the full linear-time decomposition (Batagelj–Zaveršnik): repeatedly
//! remove the minimum-degree node, assigning each node the highest `k`
//! such that it survives in a subgraph of minimum degree `k`. [`k_core`]
//! asks about one `k` only, so it removes just the nodes that fall below
//! it and reads no list but theirs.

use ringo_graph::{DirectedTopology, Direction, NodeValues, UndirectedGraph};

/// Computes the core number of every node, in ascending slot order.
///
/// Self-loops contribute one to a node's degree, consistent with
/// [`UndirectedGraph::degree`].
pub fn core_numbers(g: &UndirectedGraph) -> NodeValues<u32> {
    let n_slots = g.n_slots();
    // Dense arrays indexed by slot; vacant slots have degree 0 but are
    // excluded from the ordering.
    let mut degree = slot_degrees(g);
    let live: Vec<bool> = (0..n_slots).map(|s| g.slot_id(s).is_some()).collect();
    let n = g.node_count();
    if n == 0 {
        return g.node_values(Vec::new(), 0, |_| true);
    }
    let max_deg = degree
        .iter()
        .zip(&live)
        .filter(|(_, &l)| l)
        .map(|(&d, _)| d)
        .max()
        .unwrap_or(0) as usize;

    // Bucket sort by degree.
    let mut bin_start = vec![0usize; max_deg + 2];
    for s in 0..n_slots {
        if live[s] {
            bin_start[degree[s] as usize + 1] += 1;
        }
    }
    for i in 1..bin_start.len() {
        bin_start[i] += bin_start[i - 1];
    }
    let mut pos = vec![0usize; n_slots]; // slot -> position in vert
    let mut vert = vec![0usize; n]; // ordered slots
    {
        let mut cursor = bin_start.clone();
        for s in 0..n_slots {
            if live[s] {
                let d = degree[s] as usize;
                pos[s] = cursor[d];
                vert[cursor[d]] = s;
                cursor[d] += 1;
            }
        }
    }
    // bin[d] = index of first vertex with degree >= d during peeling.
    let mut bin = bin_start;
    bin.pop();

    // Nodes leave in non-decreasing degree order and only a neighbour of
    // higher degree is decremented, so a node's degree is final — its core
    // number — once it leaves, and `degree` ends as the answer.
    for i in 0..n {
        let v = vert[i];
        for &u in g.out_row(v) {
            let u = u as usize;
            if u == v {
                continue;
            }
            if degree[u] > degree[v] {
                // Move u one bucket down: swap with the first vertex of
                // its current bucket.
                let du = degree[u] as usize;
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw];
                if u != w {
                    vert[pu] = w;
                    vert[pw] = u;
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bin[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    g.node_values(degree, n, |_| true)
}

/// Degree of every slot (0 for vacant ones), self-loops counting one.
fn slot_degrees(g: &UndirectedGraph) -> Vec<u32> {
    (0..g.n_slots())
        .map(|s| DirectedTopology::degree(g, s, Direction::Out))
        .collect()
}

/// Extracts the `k`-core: the maximal subgraph in which every node has
/// degree at least `k` (a self-loop counts one, as in [`core_numbers`]).
/// Returns an empty graph when no such subgraph exists.
///
/// A threshold peel: a node is live while its degree is at least `k`;
/// each node that falls below is queued once, its list walked once, and
/// every live neighbour loses one degree and is remembered as the far end
/// of a cut edge. The survivors' rows are then renumbered from `g`'s own
/// ([`UndirectedGraph::without`], the cuts sizing them), so the peel's
/// work is set by the nodes that fall and the copy's by the size of the
/// answer.
pub fn k_core(g: &UndirectedGraph, k: u32) -> UndirectedGraph {
    let mut sp = ringo_trace::span!("algo.kcore");
    sp.rows_in(g.node_count());
    let mut degree = slot_degrees(g);
    // The work-list; it ends up holding exactly the removed slots.
    let mut gone: Vec<u32> = (0..g.n_slots())
        .filter(|&s| degree[s] < k && g.slot_id(s).is_some())
        .map(|s| s as u32)
        .collect();
    let mut cuts: Vec<(u32, u32)> = Vec::new();
    let mut next = 0;
    while let Some(&v) = gone.get(next) {
        next += 1;
        for &u in g.out_row(v as usize) {
            if u == v || degree[u as usize] < k {
                continue;
            }
            degree[u as usize] -= 1;
            cuts.push((u, v));
            if degree[u as usize] < k {
                gone.push(u);
            }
        }
    }
    ringo_trace::counter("algo.kcore.removed").add(gone.len() as u64);
    ringo_trace::counter("algo.kcore.cut").add(cuts.len() as u64);
    let core = g.without(&gone, &cuts);
    sp.rows_out(core.node_count());
    core
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = UndirectedGraph::new();
        assert!(core_numbers(&g).is_empty());
        assert_eq!(k_core(&g, 1).node_count(), 0);
    }

    #[test]
    fn path_has_core_one() {
        let mut g = UndirectedGraph::new();
        for i in 0..5 {
            g.add_edge(i, i + 1);
        }
        let cores = core_numbers(&g);
        for i in 0..=5 {
            assert_eq!(cores.get(i), Some(&1));
        }
    }

    #[test]
    fn clique_core_is_n_minus_one() {
        let mut g = UndirectedGraph::new();
        for a in 0..5i64 {
            for b in (a + 1)..5 {
                g.add_edge(a, b);
            }
        }
        let cores = core_numbers(&g);
        for i in 0..5 {
            assert_eq!(cores.get(i), Some(&4));
        }
    }

    #[test]
    fn clique_with_pendant_tail() {
        let mut g = UndirectedGraph::new();
        // Triangle 0-1-2 plus tail 2-3-4.
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        let cores = core_numbers(&g);
        assert_eq!(cores.get(0), Some(&2));
        assert_eq!(cores.get(1), Some(&2));
        assert_eq!(cores.get(2), Some(&2));
        assert_eq!(cores.get(3), Some(&1));
        assert_eq!(cores.get(4), Some(&1));
    }

    #[test]
    fn k_core_extraction_peels_tails() {
        let mut g = UndirectedGraph::new();
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(2, 3); // pendant
        let core2 = k_core(&g, 2);
        assert_eq!(core2.node_count(), 3);
        assert_eq!(core2.edge_count(), 3);
        assert!(!core2.has_node(3));
        let core3 = k_core(&g, 3);
        assert_eq!(core3.node_count(), 0);
    }

    #[test]
    fn min_degree_invariant_of_k_core() {
        // Random graph: every node of k_core(g, k) must have degree >= k
        // inside the core.
        let mut g = UndirectedGraph::new();
        let mut x = 5u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 33) % 120;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 33) % 120;
            if a != b {
                g.add_edge(a as i64, b as i64);
            }
        }
        for k in [2u32, 3, 5] {
            let core = k_core(&g, k);
            for id in core.node_ids() {
                assert!(
                    core.degree(id).unwrap() >= k as usize,
                    "node {id} has degree {} in {k}-core",
                    core.degree(id).unwrap()
                );
            }
        }
    }

    #[test]
    fn isolated_nodes_have_core_zero() {
        let mut g = UndirectedGraph::new();
        g.add_node(42);
        g.add_edge(1, 2);
        let cores = core_numbers(&g);
        assert_eq!(cores.get(42), Some(&0));
        assert_eq!(cores.get(1), Some(&1));
    }
}
