//! Quickstart: tables in, graph out, PageRank back into a table.
//!
//! Run with `cargo run --release --example quickstart`.

use ringo::trace::mem::TrackingAllocator;
use ringo::{AggOp, Cmp, ColumnType, Predicate, Ringo, Schema, Table, Value};

// Route allocations through the tracking allocator so traces and the
// op-log report real memory deltas.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Honors RINGO_TRACE_JSON; dumps JSON there when main returns.
    let _trace = ringo::trace::init_from_env();
    let ringo = Ringo::new();
    println!("Ringo quickstart ({} worker threads)\n", ringo.threads());

    // 1. Build a small "follows" table by hand (normally: load_table_tsv).
    let schema = Schema::new([
        ("follower", ColumnType::Int),
        ("followee", ColumnType::Int),
        ("weight", ColumnType::Float),
    ]);
    let mut follows = Table::new(schema);
    for (a, b, w) in [
        (1i64, 2i64, 1.0),
        (1, 3, 0.5),
        (2, 3, 1.0),
        (3, 1, 0.2),
        (4, 3, 0.9),
        (4, 2, 0.4),
        (5, 3, 1.0),
        (5, 1, 0.3),
    ] {
        follows.push_row(&[Value::Int(a), Value::Int(b), Value::Float(w)])?;
    }
    println!(
        "follows table: {} rows, {} columns",
        follows.n_rows(),
        follows.n_cols()
    );

    // 2. Relational work: keep strong follows only, count per followee.
    let strong = ringo.select(&follows, &Predicate::float("weight", Cmp::Ge, 0.5))?;
    println!("strong follows: {} rows", strong.n_rows());
    let indegree = ringo.group_by(&strong, &["followee"], None, AggOp::Count, "fans")?;
    for row in 0..indegree.n_rows() {
        println!(
            "  user {:?} has {:?} strong fans",
            indegree.get(row, "followee")?,
            indegree.get(row, "fans")?
        );
    }

    // 3. Convert the edge table to a graph and rank nodes.
    let g = ringo.to_graph(&strong, "follower", "followee")?;
    println!(
        "\ngraph: {} nodes, {} edges, ~{} bytes in memory",
        g.node_count(),
        g.edge_count(),
        g.mem_size()
    );
    let mut pr = ringo.pagerank(&g);
    pr.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("PageRank:");
    for (id, score) in &pr {
        println!("  node {id}: {score:.4}");
    }

    // 4. Results flow back into table land for further joins.
    let scores = ringo.table_from_scores(&pr, "user", "rank");
    let enriched = ringo.join(&indegree, &scores, "followee", "user")?;
    println!(
        "\njoined fans+rank table: {} rows x {} cols",
        enriched.n_rows(),
        enriched.n_cols()
    );

    // 5. Every verb above was recorded in the context's op-log.
    println!("\noperation timings:");
    for t in ringo.op_timings() {
        println!(
            "  {:<20} {:>2} calls  {:.1?} total",
            t.name, t.calls, t.total
        );
    }
    Ok(())
}
