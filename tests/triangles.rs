//! Triangle counting against an O(n³) brute force.
//!
//! Every check here demands that `count_triangles` and `node_triangles`
//! agree with a triple loop over `has_edge` — at every thread count, on
//! vacant slots, self-loops and extreme ids.

use ringo::algo::{count_triangles, node_triangles};
use ringo::gen::{rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{NodeId, UndirectedGraph};

/// Triangles through each node, in slot order, by testing every triple.
fn brute(g: &UndirectedGraph) -> Vec<(NodeId, u64)> {
    let ids: Vec<NodeId> = g.node_ids().collect();
    let mut per_node = vec![0u64; ids.len()];
    for a in 0..ids.len() {
        for b in a + 1..ids.len() {
            if !g.has_edge(ids[a], ids[b]) {
                continue;
            }
            for c in b + 1..ids.len() {
                if g.has_edge(ids[a], ids[c]) && g.has_edge(ids[b], ids[c]) {
                    for corner in [a, b, c] {
                        per_node[corner] += 1;
                    }
                }
            }
        }
    }
    ids.into_iter().zip(per_node).collect()
}

/// Every entry point, at every thread count, against the brute force.
/// Returns the triangle count.
fn check(g: &UndirectedGraph, what: &str) -> u64 {
    let per_node = brute(g);
    let total = per_node.iter().map(|&(_, c)| c).sum::<u64>() / 3;
    for threads in [1, 2, 8] {
        assert_eq!(
            count_triangles(g, threads),
            total,
            "{what}, {threads} threads"
        );
        let got: Vec<(NodeId, u64)> = node_triangles(g, threads)
            .iter()
            .map(|(v, &c)| (v, c))
            .collect();
        assert_eq!(got, per_node, "{what}, {threads} threads");
    }
    total
}

fn from_edges(edges: &[(NodeId, NodeId)]) -> UndirectedGraph {
    let mut g = UndirectedGraph::new();
    for &(a, b) in edges {
        g.add_edge(a, b);
    }
    g
}

fn rmat_graph(scale: u32, edges: usize, seed: u64) -> UndirectedGraph {
    from_edges(&rmat(&RmatConfig {
        scale,
        edges,
        seed,
        ..Default::default()
    }))
}

#[test]
fn every_graph_on_up_to_five_nodes() {
    // Ids on both sides of zero, inserted out of order so slot order and
    // id order differ.
    const IDS: [NodeId; 5] = [3, -4, 0, 11, -1];
    for n in 1..=IDS.len() {
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|a| (a..n).map(move |b| (IDS[a], IDS[b])))
            .collect();
        for mask in 0u32..1 << pairs.len() {
            let mut g = UndirectedGraph::new();
            for &id in &IDS[..n] {
                g.add_node(id);
            }
            for (bit, &(a, b)) in pairs.iter().enumerate() {
                if mask >> bit & 1 == 1 {
                    g.add_edge(a, b);
                }
            }
            check(&g, &format!("n {n} mask {mask:#b}"));
        }
    }
}

#[test]
fn closed_forms() {
    let clique: Vec<_> = (0..9)
        .flat_map(|a| (a + 1..9).map(move |b| (a, b)))
        .collect();
    assert_eq!(check(&from_edges(&clique), "K9"), 84);
    let star: Vec<_> = (1..200).map(|i| (0, i)).collect();
    assert_eq!(check(&from_edges(&star), "star"), 0);
    let path: Vec<_> = (0..200).map(|i| (i, i + 1)).collect();
    assert_eq!(check(&from_edges(&path), "path"), 0);
    // A hub joined to every node of a path: one triangle per path edge,
    // and a 200:2 length ratio on every intersection with the hub.
    let wheel: Vec<_> = path
        .iter()
        .copied()
        .chain((0..=200).map(|i| (-1, i)))
        .collect();
    assert_eq!(check(&from_edges(&wheel), "hub over a path"), 200);
    assert_eq!(check(&UndirectedGraph::new(), "empty"), 0);
}

#[test]
fn seeded_rmat_with_self_loops() {
    for seed in [1, 2, 3] {
        let mut g = rmat_graph(8, 3_000, seed);
        let ids: Vec<NodeId> = g.node_ids().step_by(7).collect();
        for id in ids {
            g.add_edge(id, id);
        }
        assert!(
            check(&g, "rmat") > 0,
            "seed {seed}: dense enough to close triangles"
        );
    }
}

#[test]
fn either_id_order_is_counted_alike() {
    // R-MAT gives its hubs the small ids; negating every id gives them
    // the large ones, and a multiplicative hash scatters them among the
    // rest (the biggest, id 0, stays 0: the middle of the hashed ids).
    // The counting corner is the largest slot, so each order puts the
    // hubs' rows on a different side of it.
    let edges = rmat(&RmatConfig {
        scale: 8,
        edges: 3_000,
        seed: 9,
        ..Default::default()
    });
    let relabelled =
        |f: fn(NodeId) -> NodeId| -> Vec<_> { edges.iter().map(|&(a, b)| (f(a), f(b))).collect() };
    let total = check(&from_edges(&edges), "rmat");
    assert_eq!(
        check(&from_edges(&relabelled(|id| -id)), "mirrored rmat"),
        total
    );
    let hashed = relabelled(|id| id.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64));
    assert_eq!(check(&from_edges(&hashed), "hashed rmat"), total);
}

#[test]
fn vacant_slots_at_word_boundaries_and_a_looped_hub() {
    // More than two 64-slot words of the kernels' bitmap, with slots
    // vacated on both sides of the first two word boundaries, and a
    // self-loop on the biggest hub.
    let mut g = rmat_graph(8, 3_000, 11);
    assert!(g.n_slots() > 128);
    for slot in [62, 63, 64, 65, 127, 128] {
        let id = g.slot_id(slot).expect("every slot is live before");
        assert!(g.del_node(id));
    }
    let hub = g
        .node_ids()
        .max_by_key(|&id| g.degree(id))
        .expect("nodes survive");
    g.add_edge(hub, hub);
    assert!(check(&g, "holes at word boundaries, looped hub") > 0);
}

#[test]
fn vacant_slots_after_del_node() {
    let mut g = rmat_graph(8, 3_000, 4);
    let n_slots = g.n_slots();
    let mut victims: Vec<NodeId> = g.node_ids().collect();
    victims.sort_unstable_by_key(|&id| std::cmp::Reverse(g.degree(id)));
    // The three biggest hubs and a spread of the rest.
    for &id in victims
        .iter()
        .take(3)
        .chain(victims.iter().skip(3).step_by(5))
    {
        assert!(g.del_node(id));
    }
    assert_eq!(g.n_slots(), n_slots, "slots stay, vacant");
    assert!(g.node_count() < n_slots);
    let total = check(&g, "after del_node");
    // A node added later reuses a vacant slot.
    let (a, b) = g.edges().find(|&(a, b)| a != b).expect("an edge survives");
    g.add_edge(1 << 40, a);
    g.add_edge(1 << 40, b);
    assert_eq!(check(&g, "after re-adding"), total + 1);
}

#[test]
fn extreme_ids() {
    // `i64::MIN` is the node table's reserved key, so the smallest id a
    // graph can hold is one above it.
    let ids = [i64::MIN + 1, i64::MIN + 2, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let mut edges: Vec<_> = ids
        .iter()
        .flat_map(|&a| ids.iter().filter(move |&&b| a < b).map(move |&b| (a, b)))
        .collect();
    edges.push((i64::MIN + 1, i64::MIN + 1));
    edges.push((i64::MAX, i64::MAX));
    assert_eq!(check(&from_edges(&edges), "K7 on extreme ids"), 35);
}

#[test]
fn larger_rmat_agrees_with_itself() {
    // Too big for the triple loop: thread counts and the per-node sum
    // must still agree with one another.
    let g = rmat_graph(12, 40_000, 6);
    let total = count_triangles(&g, 1);
    assert!(total > 0);
    for threads in [1, 2, 8] {
        assert_eq!(count_triangles(&g, threads), total);
    }
    let per_node = node_triangles(&g, 1);
    assert_eq!(per_node, node_triangles(&g, 8));
    assert_eq!(per_node.values().iter().sum::<u64>(), 3 * total);
}
