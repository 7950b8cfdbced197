//! Truss decomposition against the definition applied directly.
//!
//! The k-truss is what is left after repeatedly deleting any edge that
//! sits in fewer than `k - 2` surviving triangles; an edge's truss number
//! is the last `k` it survived. `truss_numbers` must say the same on
//! every small graph, and `k_truss` must nest.

use ringo::algo::{k_truss, truss_numbers};
use ringo::{NodeId, UndirectedGraph};
use ringo_rng::Rng64;
use std::collections::{BTreeMap, BTreeSet};

type Edge = (NodeId, NodeId);

/// Truss number of every non-loop edge `(a, b)`, `a < b`, by peeling
/// k = 3, 4, … to a fixed point each, one edge at a time.
fn brute(g: &UndirectedGraph) -> BTreeMap<Edge, u32> {
    let mut live: BTreeSet<Edge> = g.edges().filter(|(a, b)| a != b).collect();
    let ids: Vec<NodeId> = g.node_ids().collect();
    let mut truss: BTreeMap<Edge, u32> = live.iter().map(|&e| (e, 2)).collect();
    let mut k = 3;
    while !live.is_empty() {
        loop {
            let has = |a: NodeId, b: NodeId| live.contains(&(a.min(b), a.max(b)));
            let starved = live.iter().copied().find(|&(a, b)| {
                let triangles = ids.iter().filter(|&&w| has(a, w) && has(b, w)).count();
                triangles < k as usize - 2
            });
            match starved {
                Some(e) => live.remove(&e),
                None => break,
            };
        }
        for e in &live {
            truss.insert(*e, k);
        }
        k += 1;
    }
    truss
}

/// `truss_numbers` equals the brute force, and every `k_truss` is the
/// edges of truss number ≥ k, inside the (k-1)-truss.
fn check(g: &UndirectedGraph, what: &str) {
    let want = brute(g);
    let got: BTreeMap<Edge, u32> = truss_numbers(g).into_iter().collect();
    assert_eq!(got, want, "{what}");
    let top = want.values().copied().max().unwrap_or(2);
    let mut outer: BTreeSet<Edge> = k_truss(g, 2).edges().collect();
    for k in 3..=top + 1 {
        let inner: BTreeSet<Edge> = k_truss(g, k).edges().collect();
        let by_number: BTreeSet<Edge> = want
            .iter()
            .filter(|(_, &t)| t >= k)
            .map(|(&e, _)| e)
            .collect();
        assert_eq!(inner, by_number, "{what}: {k}-truss");
        assert!(inner.is_subset(&outer), "{what}: {k}-truss nests");
        outer = inner;
    }
}

#[test]
fn every_graph_on_up_to_five_nodes() {
    // Ids on both sides of zero, inserted out of order so slot order and
    // id order differ. Graphs on fewer nodes are the masks that leave a
    // node isolated.
    const IDS: [NodeId; 5] = [3, -4, 0, 11, -1];
    let pairs: Vec<Edge> = (0..IDS.len())
        .flat_map(|a| (a + 1..IDS.len()).map(move |b| (IDS[a], IDS[b])))
        .collect();
    for mask in 0u32..1 << pairs.len() {
        let mut g = UndirectedGraph::new();
        for &id in &IDS {
            g.add_node(id);
        }
        for (bit, &(a, b)) in pairs.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                g.add_edge(a, b);
            }
        }
        check(&g, &format!("mask {mask:#b}"));
    }
}

#[test]
fn seeded_random_graphs_on_up_to_nine_nodes() {
    for seed in 0..300 {
        let mut rng = Rng64::new(seed);
        let n = rng.range_i64(3..10);
        let p = 0.2 + 0.7 * rng.f64();
        let mut g = UndirectedGraph::new();
        for a in 0..n {
            g.add_node(a);
            for b in 0..a {
                if rng.chance(p) {
                    g.add_edge(a, b);
                }
            }
        }
        check(&g, &format!("seed {seed}: G({n}, {p:.2})"));
    }
}
