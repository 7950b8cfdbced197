//! Equivalence tests for the kernels rerouted through the frontier
//! engine: each must agree with an independent implementation (or an
//! algorithm-specific invariant) on R-MAT data, confirming the engine
//! swap changed performance, not results.

use ringo::algo::{
    betweenness_centrality, betweenness_centrality_sampled, bfs_distances, bfs_tree, sssp_dijkstra,
    topological_sort, weakly_connected_components,
};
use ringo::gen::{edges_to_table, RmatConfig};
use ringo::{DirectedGraph, Direction};

mod common;
use common::{partition, wcc_oracle};

fn rmat_graph(scale: u32, edges: usize, seed: u64) -> DirectedGraph {
    let e = ringo::gen::rmat(&RmatConfig {
        scale,
        edges,
        seed,
        ..Default::default()
    });
    ringo::convert::table_to_graph(&edges_to_table(&e), "src", "dst").unwrap()
}

#[test]
fn wcc_via_engine_matches_union_find() {
    for seed in [1, 23] {
        let g = rmat_graph(10, 9_000, seed);
        let a = weakly_connected_components(&g);
        assert_eq!(partition(&a), wcc_oracle(&g));
        let total: usize = a.sizes.iter().sum();
        assert_eq!(total, g.node_count());
    }
}

#[test]
fn engine_bfs_matches_dijkstra_on_unit_weights() {
    let g = rmat_graph(11, 20_000, 9);
    let src = g.node_ids().next().unwrap();
    let bfs = bfs_distances(&g, src, Direction::Out);
    let dij = sssp_dijkstra(&g, src, |_, _| 1.0);
    assert_eq!(bfs.len(), dij.len());
    for (id, &hops) in bfs.iter() {
        assert_eq!(*dij.get(id).unwrap(), f64::from(hops), "node {id}");
    }
}

#[test]
fn bfs_tree_edges_step_one_level() {
    let g = rmat_graph(10, 9_000, 5);
    let src = g.node_ids().next().unwrap();
    let dist = bfs_distances(&g, src, Direction::Out);
    let tree = bfs_tree(&g, src, Direction::Out);
    assert_eq!(dist.len(), tree.len());
    for (id, &p) in tree.iter() {
        if id == src {
            assert_eq!(p, src);
            continue;
        }
        assert_eq!(dist.get(id).unwrap() - 1, *dist.get(p).unwrap());
        assert!(g.out_nbrs(p).any(|n| n == id), "tree edge {p}->{id} exists");
    }
}

#[test]
fn sampled_betweenness_with_full_sample_matches_exact_on_rmat() {
    let g = rmat_graph(8, 2_000, 13);
    let exact = betweenness_centrality(&g, false, 1);
    for threads in [1, 2, 4] {
        let sampled = betweenness_centrality_sampled(&g, g.node_count(), false, threads);
        assert_eq!(exact, sampled, "bit for bit at {threads} threads");
    }
}

#[test]
fn parallel_topological_sort_is_valid_and_deterministic() {
    // R-MAT edges oriented small id -> large id form a DAG.
    let e = ringo::gen::rmat(&RmatConfig {
        scale: 11,
        edges: 30_000,
        seed: 3,
        ..Default::default()
    });
    let mut g = DirectedGraph::new();
    for &(s, d) in &e {
        if s < d {
            g.add_edge(s, d);
        }
    }
    let order = topological_sort(&g).expect("acyclic by construction");
    assert_eq!(order.len(), g.node_count());
    let pos: std::collections::HashMap<i64, usize> =
        order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    for (s, d) in g.edges() {
        assert!(pos[&s] < pos[&d], "{s} before {d}");
    }
    assert_eq!(order, topological_sort(&g).unwrap(), "deterministic");
}
