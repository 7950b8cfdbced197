//! Cross-validation integration tests for the algorithm library: every
//! algorithm checked against an independent oracle or invariant on
//! realistic (R-MAT) data.

use ringo::algo::{
    approx_diameter, betweenness_centrality, bfs_distances, closeness_centrality,
    clustering_coefficient, degree_histogram, dfs_order, dijkstra_weighted, eigenvector_centrality,
    has_cycle, pagerank, pagerank_weighted, personalized_pagerank, sssp_dijkstra, topological_sort,
    triad_census, Direction, PageRankConfig,
};
use ringo::gen::{edges_to_table, RmatConfig};
use ringo::{DirectedGraph, Ringo};

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
fn pagerank_mass_is_conserved_and_ranks_hubs() {
    let g = rmat_graph(10, 8_000, 3);
    let pr = pagerank(&g, &PageRankConfig::default());
    let total: f64 = pr.iter().map(|(_, s)| s).sum();
    assert!((total - 1.0).abs() < 1e-6);
    // Top PageRank node should be among the top in-degree nodes.
    let top = pr.iter().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
    let top_indeg = g.in_degree(top).unwrap();
    let max_indeg = g.node_ids().map(|v| g.in_degree(v).unwrap()).max().unwrap();
    assert!(top_indeg * 2 >= max_indeg, "top PR node is a major hub");
}

#[test]
fn weighted_pagerank_reduces_to_unweighted_on_unit_weights() {
    let g = rmat_graph(8, 1_500, 5);
    let mut wg = ringo::WeightedDigraph::new();
    for (s, d) in g.edges() {
        wg.add_edge(s, d, 1.0);
    }
    let cfg = PageRankConfig {
        threads: 1,
        ..Default::default()
    };
    let a = pagerank(&g, &cfg);
    let b = pagerank_weighted(&wg, &cfg);
    for (id, s) in a.iter() {
        let sb = b.get(id).unwrap();
        assert!((s - sb).abs() < 1e-9);
    }
}

#[test]
fn ppr_sums_to_one_and_favors_seed_region() {
    let g = rmat_graph(9, 3_000, 11);
    let seed = g.node_ids().next().unwrap();
    let ppr = personalized_pagerank(&g, &[seed], &PageRankConfig::default());
    let total: f64 = ppr.iter().map(|(_, s)| s).sum();
    assert!((total - 1.0).abs() < 1e-6);
    let seed_score = *ppr.get(seed).unwrap();
    let mean = 1.0 / g.node_count() as f64;
    assert!(seed_score > 3.0 * mean, "seed holds concentrated mass");
}

#[test]
fn dijkstra_never_shorter_than_bfs_times_min_weight() {
    let g = rmat_graph(8, 1_200, 21);
    let src = g.node_ids().next().unwrap();
    let hops = bfs_distances(&g, src, Direction::Out);
    // Weight 2.0 per edge: distance must be exactly 2x the hop count.
    let d = sssp_dijkstra(&g, src, |_, _| 2.0);
    assert_eq!(d.len(), hops.len());
    for (id, &h) in hops.iter() {
        assert_eq!(*d.get(id).unwrap(), 2.0 * f64::from(h));
    }
}

#[test]
fn weighted_dijkstra_on_converted_table_weights() {
    let ringo = Ringo::with_threads(1);
    let mut t = edges_to_table(&[(1, 2), (2, 3), (1, 3)]);
    t.add_float_column("w", vec![1.0, 1.0, 5.0]).unwrap();
    let wg = ringo
        .to_weighted_graph(&t, "src", "dst", Some("w"))
        .unwrap();
    let d = dijkstra_weighted(&wg, 1);
    assert_eq!(d.get(3), Some(&2.0), "two cheap hops beat one heavy edge");
}

#[test]
fn dfs_and_bfs_reach_identical_node_sets() {
    let g = rmat_graph(9, 2_500, 31);
    let src = g.node_ids().next().unwrap();
    let mut via_bfs: Vec<i64> = bfs_distances(&g, src, Direction::Out)
        .iter()
        .map(|(id, _)| id)
        .collect();
    let mut via_dfs = dfs_order(&g, src);
    via_bfs.sort_unstable();
    via_dfs.sort_unstable();
    assert_eq!(via_bfs, via_dfs);
}

#[test]
fn topological_sort_exists_iff_no_cycle() {
    // R-MAT graphs almost surely contain cycles.
    let cyclic = rmat_graph(9, 4_000, 41);
    assert!(has_cycle(&cyclic));
    // A DAG built by orienting edges low->high id is acyclic.
    let mut dag = DirectedGraph::new();
    for (s, d) in cyclic.edges() {
        if s < d {
            dag.add_edge(s, d);
        }
    }
    assert!(!has_cycle(&dag));
    let order = topological_sort(&dag).unwrap();
    let pos: std::collections::HashMap<i64, usize> =
        order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    for (s, d) in dag.edges() {
        assert!(pos[&s] < pos[&d]);
    }
}

#[test]
fn structural_statistics_are_in_valid_ranges() {
    let g = rmat_graph(10, 10_000, 51);
    let h = degree_histogram(&g, Direction::Both);
    let nodes: usize = h.iter().map(|(_, c)| c).sum();
    assert_eq!(nodes, g.node_count());
    let diam = approx_diameter(&g, 3, Direction::Both);
    assert!(diam >= 2, "R-MAT graphs are not cliques");
    let u = g.to_undirected();
    let cc = clustering_coefficient(&u, 2);
    assert!((0.0..=1.0).contains(&cc));
    assert!(cc > 0.0, "power-law graphs cluster");
}

#[test]
fn centralities_agree_on_an_obvious_center() {
    // Wheel graph: hub 0 connected both ways to every rim node, rim is a
    // bidirectional cycle. Hub must top every centrality.
    let mut g = DirectedGraph::new();
    let n = 12i64;
    for i in 1..=n {
        g.add_edge(0, i);
        g.add_edge(i, 0);
        let next = if i == n { 1 } else { i + 1 };
        g.add_edge(i, next);
        g.add_edge(next, i);
    }
    let bc = betweenness_centrality(&g, false, 2);
    let top_bc = bc.iter().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
    assert_eq!(top_bc, 0);
    let ev = eigenvector_centrality(&g, 200, 1e-12, 1);
    let top_ev = ev.iter().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
    assert_eq!(top_ev, 0);
    let hub_closeness = closeness_centrality(&g, 0, Direction::Out);
    let rim_closeness = closeness_centrality(&g, 1, Direction::Out);
    assert!(hub_closeness > rim_closeness);
}

#[test]
fn triad_census_consistency_with_triangles() {
    let g = rmat_graph(7, 500, 71);
    let census = triad_census(&g);
    let n = g.node_count() as u64;
    assert_eq!(census.total(), n * (n - 1) * (n - 2) / 6);
    // Triangle-containing classes require at least one closed triple; the
    // undirected triangle count caps their sum.
    let closed: u64 = [
        "030T", "030C", "120D", "120U", "120C", "210", "300", "201", "111D", "111U",
    ]
    .iter()
    .filter_map(|n| census.get(n))
    .sum();
    let _ = closed; // classes above include open triads too; just ensure lookup works
    assert!(
        census.get("003").unwrap() > 0,
        "sparse graphs are mostly empty triads"
    );
}
