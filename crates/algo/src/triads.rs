//! Directed triad census — the 16 Holland–Leinhardt triad types, counted
//! with the Batagelj–Mrvar subquadratic algorithm.
//!
//! Triad censuses summarize a directed network's local structure (mutual
//! dyads, transitive triples, cycles...) and are a staple of SNAP-style
//! exploratory analysis. The algorithm enumerates only *connected*
//! triples through the undirected neighborhoods and accounts for the
//! vast majority of disconnected triads in closed form.

use ringo_graph::{DirectedGraph, NodeId};

/// The 16 triad isomorphism classes in standard M-A-N order.
pub const TRIAD_NAMES: [&str; 16] = [
    "003", "012", "102", "021D", "021U", "021C", "111D", "111U", "030T", "030C", "201", "120D",
    "120U", "120C", "210", "300",
];

/// Lookup from the 6-bit edge code of an ordered triple `(u, v, w)` to a
/// 1-based triad type (Batagelj & Mrvar, 2001). Bit order: `u→v`=1,
/// `v→u`=2, `u→w`=4, `w→u`=8, `v→w`=16, `w→v`=32.
const TRICODE_TO_TYPE: [u8; 64] = [
    1, 2, 2, 3, 2, 4, 6, 8, 2, 6, 5, 7, 3, 8, 7, 11, 2, 6, 4, 8, 5, 9, 9, 13, 6, 10, 9, 14, 7, 14,
    12, 15, 2, 5, 6, 7, 6, 9, 10, 14, 4, 9, 9, 12, 8, 13, 14, 15, 3, 7, 8, 11, 7, 12, 14, 15, 8,
    14, 13, 15, 11, 15, 15, 16,
];

/// Census result: count of each of the 16 triad types over all
/// `C(n, 3)` node triples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriadCensus {
    /// Counts indexed by triad class (same order as [`TRIAD_NAMES`]).
    pub counts: [u64; 16],
}

impl TriadCensus {
    /// Count of a named class (e.g. `"030T"`).
    pub fn get(&self, name: &str) -> Option<u64> {
        TRIAD_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| self.counts[i])
    }

    /// Total number of triads (= `C(n, 3)`).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

fn tricode(g: &DirectedGraph, u: NodeId, v: NodeId, w: NodeId) -> usize {
    let mut code = 0usize;
    if g.has_edge(u, v) {
        code |= 1;
    }
    if g.has_edge(v, u) {
        code |= 2;
    }
    if g.has_edge(u, w) {
        code |= 4;
    }
    if g.has_edge(w, u) {
        code |= 8;
    }
    if g.has_edge(v, w) {
        code |= 16;
    }
    if g.has_edge(w, v) {
        code |= 32;
    }
    code
}

/// Computes the triad census of a directed graph. Self-loops are ignored
/// (a triad is a set of three *distinct* nodes).
pub fn triad_census(g: &DirectedGraph) -> TriadCensus {
    let n = g.node_count() as u64;
    let mut counts = [0u64; 16];
    if n < 3 {
        return TriadCensus { counts };
    }

    // Undirected neighborhoods (sorted by id, deduped, self excluded).
    let und = g.to_undirected();
    let und_nbrs = |id: NodeId| -> Vec<NodeId> {
        let mut nbrs: Vec<NodeId> = und.nbrs(id).filter(|&x| x != id).collect();
        nbrs.sort_unstable();
        nbrs
    };

    for u in g.node_ids() {
        let nu = und_nbrs(u);
        for &v in &nu {
            if v <= u {
                continue;
            }
            let nv = und_nbrs(v);
            // S = (N(u) ∪ N(v)) \ {u, v}.
            let mut s: Vec<NodeId> = nu
                .iter()
                .chain(nv.iter())
                .copied()
                .filter(|&x| x != u && x != v)
                .collect();
            s.sort_unstable();
            s.dedup();
            // Triples whose third node touches neither u nor v form a
            // pure dyad + isolate: type 102 if the dyad is mutual, 012
            // otherwise.
            let dyad_type = if g.has_edge(u, v) && g.has_edge(v, u) {
                2 // "102"
            } else {
                1 // "012"
            };
            counts[dyad_type] += n - s.len() as u64 - 2;
            // Connected triples, counted once per triple: take w when
            // v < w, or when u < w < v and {u, w} is not an edge (so the
            // pair (u, w) will not enumerate this triple itself).
            for &w in &s {
                let count_here = w > v || (u < w && w < v && nu.binary_search(&w).is_err());
                if count_here {
                    let ty = TRICODE_TO_TYPE[tricode(g, u, v, w)] as usize - 1;
                    counts[ty] += 1;
                }
            }
        }
    }

    // Everything not counted is the empty triad 003.
    let total = n * (n - 1) * (n - 2) / 6;
    let seen: u64 = counts.iter().sum();
    counts[0] = total - seen;
    TriadCensus { counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: classify every triple via the tricode.
    fn brute(g: &DirectedGraph) -> TriadCensus {
        let mut ids: Vec<NodeId> = g.node_ids().collect();
        ids.sort_unstable();
        let mut counts = [0u64; 16];
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                for k in (j + 1)..ids.len() {
                    let ty = TRICODE_TO_TYPE[tricode(g, ids[i], ids[j], ids[k])] as usize - 1;
                    counts[ty] += 1;
                }
            }
        }
        TriadCensus { counts }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = DirectedGraph::new();
        assert_eq!(triad_census(&g).total(), 0);
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        assert_eq!(triad_census(&g).total(), 0, "fewer than 3 nodes");
    }

    #[test]
    fn single_directed_edge_among_three() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_node(3);
        let c = triad_census(&g);
        assert_eq!(c.get("012"), Some(1));
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn mutual_dyad_plus_isolate_is_102() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        g.add_node(3);
        let c = triad_census(&g);
        assert_eq!(c.get("102"), Some(1));
    }

    #[test]
    fn transitive_and_cyclic_triangles() {
        // Transitive: 1->2, 2->3, 1->3 = 030T.
        let mut t = DirectedGraph::new();
        t.add_edge(1, 2);
        t.add_edge(2, 3);
        t.add_edge(1, 3);
        assert_eq!(triad_census(&t).get("030T"), Some(1));
        // Cyclic: 1->2->3->1 = 030C.
        let mut c = DirectedGraph::new();
        c.add_edge(1, 2);
        c.add_edge(2, 3);
        c.add_edge(3, 1);
        assert_eq!(triad_census(&c).get("030C"), Some(1));
    }

    #[test]
    fn complete_mutual_triangle_is_300() {
        let mut g = DirectedGraph::new();
        for a in 1..=3i64 {
            for b in 1..=3 {
                if a != b {
                    g.add_edge(a, b);
                }
            }
        }
        let census = triad_census(&g);
        assert_eq!(census.get("300"), Some(1));
        assert_eq!(census.total(), 1);
    }

    #[test]
    fn census_sums_to_n_choose_3() {
        let mut g = DirectedGraph::new();
        let mut x = 9u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = (x >> 33) % 30;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = (x >> 33) % 30;
            if s != d {
                g.add_edge(s as i64, d as i64);
            }
        }
        let n = g.node_count() as u64;
        assert_eq!(triad_census(&g).total(), n * (n - 1) * (n - 2) / 6);
    }

    #[test]
    fn matches_bruteforce_on_random_graphs() {
        for seed in [1u64, 7, 42] {
            let mut g = DirectedGraph::new();
            let mut x = seed;
            for _ in 0..150 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let s = (x >> 33) % 20;
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let d = (x >> 33) % 20;
                if s != d {
                    g.add_edge(s as i64, d as i64);
                }
            }
            // Ensure all 20 nodes exist so both methods agree on n.
            for v in 0..20 {
                g.add_node(v);
            }
            let fast = triad_census(&g);
            let slow = brute(&g);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn self_loops_do_not_affect_census() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(1, 3);
        let before = triad_census(&g);
        g.add_edge(1, 1);
        g.add_edge(2, 2);
        let after = triad_census(&g);
        assert_eq!(before, after);
    }

    #[test]
    fn named_lookup() {
        let g = DirectedGraph::new();
        let c = triad_census(&g);
        assert_eq!(c.get("003"), Some(0));
        assert_eq!(c.get("nope"), None);
    }
}
