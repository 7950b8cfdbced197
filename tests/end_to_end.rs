//! Integration tests spanning the whole stack: generators → tables →
//! conversions → graphs → algorithms → back to tables.

use ringo::algo::{
    bfs_distances, core_numbers, count_triangles, hits, label_propagation, pagerank, sssp_dijkstra,
    strongly_connected_components, weakly_connected_components,
};
use ringo::gen::{RmatConfig, StackOverflowConfig};
use ringo::{
    AggOp, Cmp, ColumnType, Direction, PageRankConfig, Predicate, Ringo, Schema, Table, Value,
};

#[test]
fn stackoverflow_expert_pipeline_finds_real_answerers() {
    let ringo = Ringo::with_threads(2);
    let posts = ringo.generate_stackoverflow(&StackOverflowConfig {
        questions: 2_000,
        answers: 3_500,
        users: 800,
        ..Default::default()
    });

    let java = ringo
        .select(&posts, &Predicate::str_eq("Tag", "java"))
        .unwrap();
    let q = ringo
        .select(&java, &Predicate::str_eq("Type", "question"))
        .unwrap();
    let a = ringo
        .select(&java, &Predicate::str_eq("Type", "answer"))
        .unwrap();
    assert_eq!(q.n_rows() + a.n_rows(), java.n_rows());

    let qa = ringo.join(&q, &a, "AcceptedAnswerId", "PostId").unwrap();
    assert!(qa.n_rows() > 50);
    // Every joined row's accepted id equals the answer's post id.
    let acc = qa.int_col("AcceptedAnswerId").unwrap();
    let pid = qa.int_col("PostId-1").unwrap();
    assert!(acc.iter().zip(pid).all(|(x, y)| x == y));

    let g = ringo.to_graph(&qa, "UserId", "UserId-1").unwrap();
    assert!(g.edge_count() <= qa.n_rows(), "dedup only shrinks");
    let pr = ringo.pagerank(&g);
    let sum: f64 = pr.iter().map(|(_, s)| s).sum();
    assert!((sum - 1.0).abs() < 1e-6);

    // Scores flow back into a table and join against the node table.
    let scores = ringo.table_from_scores(&pr, "User", "Scr");
    let nodes = ringo.to_node_table(&g);
    let joined = ringo.join(&nodes, &scores, "node", "User").unwrap();
    assert_eq!(joined.n_rows(), g.node_count());
}

#[test]
fn conversion_roundtrip_preserves_topology_at_scale() {
    let ringo = Ringo::with_threads(4);
    let table = ringo.generate_lj_like(0.01, 5); // ~10k edges
    let g = ringo.to_graph(&table, "src", "dst").unwrap();
    let back = ringo.to_edge_table(&g);
    let g2 = ringo.to_graph(&back, "src", "dst").unwrap();
    assert_eq!(g.node_count(), g2.node_count());
    assert_eq!(g.edge_count(), g2.edge_count());
    for id in g.node_ids() {
        assert_eq!(g.out_nbrs(id), g2.out_nbrs(id));
        assert_eq!(g.in_nbrs(id), g2.in_nbrs(id));
    }
}

#[test]
fn algorithms_agree_across_representations_and_thread_counts() {
    let edges = ringo::gen::rmat(&RmatConfig {
        scale: 10,
        edges: 8_000,
        ..Default::default()
    });
    let table = ringo::gen::edges_to_table(&edges);
    let g = ringo::convert::table_to_graph(&table, "src", "dst").unwrap();
    // Same edges, inserted one at a time: every list `Owned`, slots in
    // first-appearance order, against the slab-built graph above.
    let mut owned = ringo::DirectedGraph::new();
    for &(s, d) in &edges {
        owned.add_edge(s, d);
    }

    for threads in [1usize, 4] {
        let cfg = PageRankConfig {
            threads,
            ..Default::default()
        };
        let a = pagerank(&g, &cfg);
        let b = pagerank(&owned, &cfg);
        for (id, s) in a.iter().take(200) {
            assert!((s - b.get(id).unwrap()).abs() < 1e-10);
        }
    }
}

#[test]
fn undirected_pipeline_triangles_cores_communities() {
    let ringo = Ringo::with_threads(2);
    let table = ringo.generate_lj_like(0.005, 11);
    let u = ringo.to_undirected_graph(&table, "src", "dst").unwrap();

    let t1 = count_triangles(&u, 1);
    let t4 = count_triangles(&u, 4);
    assert_eq!(t1, t4);
    assert!(t1 > 0, "R-MAT graphs close triangles");

    let cores = core_numbers(&u);
    assert_eq!(cores.len(), u.node_count());
    let core3 = ringo.k_core(&u, 3);
    for id in core3.node_ids() {
        assert!(*cores.get(id).unwrap() >= 3);
        assert!(core3.degree(id).unwrap() >= 3);
    }

    let comms = label_propagation(&u, 15, 3);
    assert_eq!(comms.sizes.iter().sum::<usize>(), u.node_count());
}

#[test]
fn directed_reachability_and_components_are_consistent() {
    let edges = ringo::gen::rmat(&RmatConfig {
        scale: 9,
        edges: 4_000,
        seed: 77,
        ..Default::default()
    });
    let table = ringo::gen::edges_to_table(&edges);
    let g = ringo::convert::table_to_graph(&table, "src", "dst").unwrap();

    let wcc = weakly_connected_components(&g);
    let scc = strongly_connected_components(&g);
    assert!(scc.n_components() >= wcc.n_components());

    // Any two nodes in one SCC reach each other; check the largest SCC.
    let (largest_idx, _) = scc
        .sizes
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| **s)
        .unwrap();
    let members: Vec<i64> = g
        .node_ids()
        .filter(|id| scc.component(*id) == Some(largest_idx as u32))
        .take(5)
        .collect();
    if members.len() >= 2 {
        let d = bfs_distances(&g, members[0], Direction::Out);
        for m in &members[1..] {
            assert!(d.contains(*m), "SCC member {m} unreachable");
        }
    }

    // Dijkstra with unit weights equals BFS.
    let src = members.first().copied().unwrap_or(0);
    let bfs = bfs_distances(&g, src, Direction::Out);
    let dij = sssp_dijkstra(&g, src, |_, _| 1.0);
    assert_eq!(bfs.len(), dij.len());
}

#[test]
fn hits_and_pagerank_rank_the_planted_authority_first() {
    // Plant an obvious authority: everyone links to node 0.
    let mut g = ringo::DirectedGraph::new();
    for i in 1..100i64 {
        g.add_edge(i, 0);
        g.add_edge(i, (i % 7) + 1);
    }
    let pr = pagerank(&g, &PageRankConfig::default());
    let top_pr = pr.iter().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
    assert_eq!(top_pr, 0);
    let h = hits(&g, 20, 2);
    let top_auth = h
        .iter()
        .max_by(|a, b| a.1.authority.total_cmp(&b.1.authority))
        .unwrap()
        .0;
    assert_eq!(top_auth, 0);
}

#[test]
fn tsv_roundtrip_through_the_facade() {
    let ringo = Ringo::new();
    let schema = Schema::new([
        ("src", ColumnType::Int),
        ("dst", ColumnType::Int),
        ("kind", ColumnType::Str),
    ]);
    let mut t = Table::new(schema.clone());
    for i in 0..50i64 {
        t.push_row(&[
            Value::Int(i),
            Value::Int((i * 3) % 50),
            if i % 2 == 0 {
                "even".into()
            } else {
                "odd".into()
            },
        ])
        .unwrap();
    }
    let path = std::env::temp_dir().join(format!("ringo_e2e_{}.tsv", std::process::id()));
    ringo.save_table_tsv(&t, &path).unwrap();
    let back = ringo.load_table_tsv(&schema, &path).unwrap();
    assert_eq!(back.n_rows(), 50);
    let even = back
        .count_where(&Predicate::str_eq("kind", "even"))
        .unwrap();
    assert_eq!(even, 25);
    let g = ringo.to_graph(&back, "src", "dst").unwrap();
    assert_eq!(g.node_count(), 50);
    std::fs::remove_file(path).ok();
}

#[test]
fn group_by_aggregates_compose_with_selection() {
    let ringo = Ringo::new();
    let posts = ringo.generate_stackoverflow(&StackOverflowConfig {
        questions: 1_000,
        answers: 2_000,
        users: 300,
        ..Default::default()
    });
    // Answers per user, descending.
    let answers = ringo
        .select(&posts, &Predicate::str_eq("Type", "answer"))
        .unwrap();
    let mut per_user = ringo
        .group_by(&answers, &["UserId"], None, AggOp::Count, "n")
        .unwrap();
    per_user.order_by(&["n"], false).unwrap();
    let counts = per_user.int_col("n").unwrap();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    assert_eq!(counts.iter().sum::<i64>() as usize, answers.n_rows());
    // Power-law activity: the top user answers far more than the median.
    let median = counts[counts.len() / 2];
    assert!(counts[0] >= 5 * median.max(1));

    // Busy users only.
    let busy = per_user.select(&Predicate::int("n", Cmp::Ge, 10)).unwrap();
    assert!(busy.n_rows() < per_user.n_rows());
}
