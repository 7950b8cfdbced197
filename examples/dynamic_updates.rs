//! Dynamic graph maintenance — the design argument of paper §2.2.
//!
//! Ringo's node-hash-table representation pays a little on traversal to
//! make single-edge updates O(degree) instead of CSR's O(E). This example
//! applies a stream of edge deletions to a conversion-built graph, times
//! them, and checks the adjacency afterwards.
//!
//! Run with `cargo run --release --example dynamic_updates`.

use ringo::graph::DirectedGraph;
use ringo::Ringo;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = ringo::trace::init_from_env();
    let ringo = Ringo::new();
    let edges_table = ringo.generate_lj_like(0.05, 99);
    let g = ringo.to_graph(&edges_table, "src", "dst")?;
    println!(
        "graph: {} nodes, {} edges (hash-table {} bytes)",
        g.node_count(),
        g.edge_count(),
        g.mem_size()
    );

    // Pick every 97th distinct edge as the deletion stream.
    let mut victims: Vec<(i64, i64)> = g.edges().step_by(97).collect();
    victims.truncate(500);
    println!("deleting {} edges...\n", victims.len());

    // Dynamic hash-table graph: O(degree) per deletion.
    let mut dynamic: DirectedGraph = g.clone();
    let t0 = Instant::now();
    for &(s, d) in &victims {
        assert!(dynamic.del_edge(s, d));
    }
    let dyn_time = t0.elapsed();
    println!(
        "node-hash-table graph: {} deletions in {:.2?} ({:.1}us each)",
        victims.len(),
        dyn_time,
        dyn_time.as_micros() as f64 / victims.len() as f64
    );

    // Every victim is gone, nothing else is.
    assert_eq!(dynamic.edge_count(), g.edge_count() - victims.len());
    for &(s, d) in &victims {
        assert!(!dynamic.has_edge(s, d));
    }
    println!("post-deletion adjacency verified.");

    // Dynamic insertion works too, including brand-new nodes.
    let new_node = 1 << 40;
    dynamic.add_edge(new_node, victims[0].0);
    assert!(dynamic.has_edge(new_node, victims[0].0));
    println!("inserted a fresh node {new_node} with one edge — still consistent.");
    Ok(())
}
