//! The k-core against the definition applied directly.
//!
//! The k-core is what is left after repeatedly deleting any node of
//! degree below `k` (a self-loop counts one). `k_core` must return exactly
//! that, laid out exactly as `induced` lays out the nodes of core number
//! ≥ k — slot order, lists, counts — on every small graph, with and
//! without self-loops, vacant slots and extreme ids; cores must nest and
//! the input must be left as it was.

use ringo::algo::{core_numbers, k_core};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{NodeId, UndirectedGraph};
use ringo_rng::Rng64;
use std::collections::{BTreeMap, BTreeSet};

/// Every slot's id and list (as ids), vacant slots included.
fn layout(g: &UndirectedGraph) -> Vec<(Option<NodeId>, Vec<NodeId>)> {
    let id = |s: &u32| g.slot_id(*s as usize).expect("a row names live slots");
    (0..g.n_slots())
        .map(|s| (g.slot_id(s), g.out_row(s).iter().map(id).collect()))
        .collect()
}

/// Nodes of the k-core by the definition: delete one node of degree < k
/// at a time until none is left.
fn by_definition(g: &UndirectedGraph, k: u32) -> BTreeSet<NodeId> {
    let mut adj: BTreeMap<NodeId, BTreeSet<NodeId>> =
        g.node_ids().map(|id| (id, g.nbrs(id).collect())).collect();
    while let Some(v) = adj
        .iter()
        .find(|(_, nbrs)| nbrs.len() < k as usize)
        .map(|(&v, _)| v)
    {
        for u in adj.remove(&v).expect("just found") {
            if let Some(nbrs) = adj.get_mut(&u) {
                nbrs.remove(&v);
            }
        }
    }
    adj.into_keys().collect()
}

/// Checks `k_core(g, k)` for `k` = 0 up to `top` and one past the
/// degeneracy, whichever is larger.
fn check(g: &UndirectedGraph, top: u32, what: &str) {
    let before = layout(g);
    let cores = core_numbers(g);
    let top = top.max(cores.iter().map(|(_, &c)| c).max().unwrap_or(0) + 1);
    let mut outer: BTreeSet<NodeId> = g.node_ids().collect();
    for k in 0..=top {
        let core = k_core(g, k);
        let want = g.induced(|id| cores.get(id).is_some_and(|&c| c >= k));
        assert_eq!(layout(&core), layout(&want), "{what}: {k}-core layout");
        assert_eq!(core.node_count(), want.node_count(), "{what}: k={k}");
        assert_eq!(core.edge_count(), want.edge_count(), "{what}: k={k}");
        let nodes: BTreeSet<NodeId> = core.node_ids().collect();
        assert_eq!(nodes, by_definition(g, k), "{what}: {k}-core nodes");
        assert!(nodes.is_subset(&outer), "{what}: {k}-core nests");
        for id in core.node_ids() {
            assert!(core.degree(id) >= Some(k as usize), "{what}: {id} in {k}");
            assert_eq!(core.slot_of(id).and_then(|s| core.slot_id(s)), Some(id));
        }
        outer = nodes;
    }
    assert!(outer.is_empty(), "{what}: no core past the degeneracy");
    assert_eq!(layout(g), before, "{what}: input untouched");
}

#[test]
fn every_graph_on_up_to_five_nodes() {
    // Ids on both sides of zero, inserted out of order so slot order and
    // id order differ. Self-loop subsets double the cases per node, so
    // they stop at four nodes.
    const IDS: [NodeId; 5] = [3, -4, 0, 11, -1];
    for n in 0..=IDS.len() {
        let ids = &IDS[..n];
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (ids[a], ids[b])))
            .collect();
        let loop_masks = if n <= 4 { 1u32 << n } else { 1 };
        for mask in 0u32..1 << pairs.len() {
            for loops in 0..loop_masks {
                let mut g = UndirectedGraph::new();
                for (bit, &id) in ids.iter().enumerate() {
                    g.add_node(id);
                    if loops >> bit & 1 == 1 {
                        g.add_edge(id, id);
                    }
                }
                for (bit, &(a, b)) in pairs.iter().enumerate() {
                    if mask >> bit & 1 == 1 {
                        g.add_edge(a, b);
                    }
                }
                check(&g, 6, &format!("n {n} edges {mask:#b} loops {loops:#b}"));
            }
        }
    }
}

#[test]
fn seeded_random_graphs_on_up_to_ten_nodes() {
    for seed in 0..300 {
        let mut rng = Rng64::new(seed);
        let n = rng.range_i64(1..11);
        let p = 0.1 + 0.8 * rng.f64();
        let mut g = UndirectedGraph::new();
        for a in 0..n {
            g.add_node(a);
            for b in 0..=a {
                // Self-loops at a quarter of the rate of other edges.
                if rng.chance(if a == b { p / 4.0 } else { p }) {
                    g.add_edge(a, b);
                }
            }
        }
        check(&g, 6, &format!("seed {seed}: G({n}, {p:.2})"));
    }
}

#[test]
fn rmat_with_holes_reused_slots_and_extreme_ids() {
    let mut edges = rmat(&RmatConfig {
        scale: 11,
        edges: 12_000,
        seed: 11,
        ..Default::default()
    });
    edges.extend((0..40).map(|i| (i * 7, i * 7))); // self-loops
    let mut g = ringo::convert::table_to_undirected(&edges_to_table(&edges), "src", "dst").unwrap();
    // Holes: every ninth node goes, hubs among them; a third of the
    // vacated slots are taken by new ids (so slot order and id order
    // part ways and the lists hold both slab views and owned vectors).
    let ids: Vec<NodeId> = g.node_ids().collect();
    let dropped: Vec<NodeId> = ids.iter().copied().step_by(9).collect();
    for &id in &dropped {
        assert!(g.del_node(id));
    }
    let vacant = g.n_slots() - g.node_count();
    assert_eq!(vacant, dropped.len());
    let mut rng = Rng64::new(3);
    for new in 0..(vacant / 3) as NodeId {
        let id = 1_000_000 + new;
        for _ in 0..rng.range_usize(1..6) {
            g.add_edge(id, ids[rng.below(ids.len())]);
        }
    }
    // The additions may have re-created dropped ids; what matters is that
    // holes remain and slots were reused.
    assert!(g.n_slots() > g.node_count(), "vacant slots remain");
    g.add_node(-77); // isolated
    for (a, b) in [(i64::MIN + 1, i64::MAX), (i64::MAX, 1), (i64::MIN + 1, 1)] {
        g.add_edge(a, b);
    }
    g.add_edge(i64::MAX, i64::MAX);
    assert!(g.edge_count() > 7_000);
    check(&g, 11, "rmat");
    let three = k_core(&g, 3);
    assert!(three.node_count() > 50 && three.node_count() < g.node_count());
}
