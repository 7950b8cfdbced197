//! An interactive Ringo shell — the reproduction's stand-in for the
//! paper's Python front-end. Type commands at the prompt to load or
//! generate tables, run relational operators, convert to graphs, and
//! apply analytics, exactly in the spirit of the §4.1 demo session.
//!
//! Every named object lives in the context's versioned **catalog**:
//! commands resolve names through a snapshot (one consistent epoch per
//! command) and publish their outputs as new versions, so `ls` shows
//! versions, `versions <name>` shows a name's history, `gc` counts the
//! displaced versions freed since the last `gc`, and `compact <graph>`
//! rewrites a mutated graph's adjacency slabs as a fresh version.
//!
//! Run with `cargo run --release --example ringo_shell`, then e.g.:
//!
//! ```text
//! ringo> gen so posts
//! ringo> select java posts Tag = java
//! ringo> select q java Type = question
//! ringo> select a java Type = answer
//! ringo> join qa q a AcceptedAnswerId PostId
//! ringo> tograph g qa UserId UserId-1
//! ringo> pagerank g 5
//! ringo> quit
//! ```
//!
//! A sample TSV ships in `data/`:
//!
//! ```text
//! ringo> load f data/example_follows.tsv follower:int,followee:int,weight:float
//! ringo> tograph g f follower followee
//! ringo> pagerank g
//! ```
//!
//! Commands also stream from stdin, so the shell is scriptable:
//! `echo "gen lj t 0.01\ntograph g t src dst\nwcc g" | cargo run --example ringo_shell`.

use ringo::algo::Direction;
use ringo::gen::StackOverflowConfig;
use ringo::graph::DirectedTopology;
use ringo::trace::mem::{format_bytes, format_bytes_delta, TrackingAllocator};
use ringo::{
    Cmp, ColumnType, DatasetKind, DirectedGraph, Predicate, Ringo, Schema, Snapshot, Table,
};
use std::io::{BufRead, Write};

// Every allocation flows through the tracking allocator so `timings` and
// `provenance` can report real per-operation memory deltas.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

struct Shell {
    ringo: Ringo,
}

const HELP: &str = "\
commands:
  gen so <name> [questions answers users]   synthetic StackOverflow posts
  gen lj <name> [scale]                      LiveJournal-like edge table
  load <name> <path> <col:type,...>          load a TSV (types: int,float,str)
  save <table> <path>                        write a table as TSV
  show <table> [rows]                        print the first rows
  select <out> <table> <col> <op> <value>    op: = != < <= > >= (type-aware)
  join <out> <left> <right> <lcol> <rcol>    inner hash join
  query <out> <table> [clauses...]           lazy chain, one materialization:
                                             where <col> <op> <value> | project <a,b,..>
                                             | join <table> <lcol> <rcol>
  explain <table> [clauses...]               print the chain of steps (same clauses)
  profile <table> [clauses...]               run the chain, print each step's rows,
                                             time, share, morsels and worker busy split
  stats                                      pool / allocator / flight-recorder gauges
  group <out> <table> <col> count            group sizes
  order <table> <col> [asc|desc]             sort (publishes a new version)
  tograph <name> <table> <srccol> <dstcol>   build a directed graph
  totable <name> <graph>                     export a graph's edge table
  pagerank <graph> [top]                     PageRank, print top nodes
  triangles <graph>                          triangle count (undirected view)
  triads <graph>                             16-class triad census
  wcc <graph> | scc <graph>                  connected components
  bfs <graph> <node>                         reachability from a node
  bfstree <graph> <node>                     BFS parent tree from a node
  describe <table>                           per-column summary statistics
  sample <out> <table> <n>                   uniform row sample
  savegraph <graph> <path>                   write SNAP-style edge list
  loadgraph <name> <path>                    read SNAP-style edge list
  info <name>                                table or graph summary
  ls                                         list the catalog (versions + epoch)
  versions <name>                            a name's full publish history
  gc                                         count catalog versions freed since last gc
  compact <graph>                            rewrite adjacency slabs as a new version
  addedge|deledge <graph> <src> <dst>        edit one edge, publish as a new version
  timings                                    per-verb latency & memory aggregates,
                                             bfs row entries / rank entries read
  provenance [n]                             last n op-log records (default 20)
  trace [reset]                              global ringo-trace report (RINGO_TRACE_JSON)
  help | quit";

/// Resolves a table by name in a pinned snapshot.
fn table<'s>(snap: &'s Snapshot, name: &str) -> Result<&'s Table, String> {
    snap.table(name)
        .map(|t| &**t)
        .ok_or(format!("no table named {name:?}"))
}

/// Resolves a graph by name in a pinned snapshot.
fn graph<'s>(snap: &'s Snapshot, name: &str) -> Result<&'s DirectedGraph, String> {
    snap.graph(name)
        .map(|g| &**g)
        .ok_or(format!("no graph named {name:?}"))
}

impl Shell {
    fn new() -> Self {
        Self {
            ringo: Ringo::new(),
        }
    }

    fn exec(&mut self, line: &str) -> Result<bool, String> {
        let args: Vec<&str> = line.split_whitespace().collect();
        let err = |msg: &str| Err(msg.to_string());
        match args.as_slice() {
            [] => Ok(true),
            ["quit"] | ["exit"] => Ok(false),
            ["help"] => {
                println!("{HELP}");
                Ok(true)
            }
            ["ls"] => {
                let cat = self.ringo.catalog();
                for (name, meta) in cat.list() {
                    let unit = match meta.kind {
                        DatasetKind::Table => "rows",
                        DatasetKind::Graph => "edges",
                    };
                    println!(
                        "{} {name}: v{} (epoch {}), {} {unit}",
                        meta.kind, meta.version, meta.epoch, meta.cardinality
                    );
                }
                println!(
                    "epoch {} | {} retired version(s) | {} pinned reader(s)",
                    cat.epoch(),
                    cat.retired_count(),
                    cat.pinned_readers()
                );
                Ok(true)
            }
            ["versions", name] => {
                let vs = self.ringo.versions(name);
                if vs.is_empty() {
                    return err("nothing ever published under that name");
                }
                for m in vs {
                    let unit = match m.kind {
                        DatasetKind::Table => "rows",
                        DatasetKind::Graph => "edges",
                    };
                    println!(
                        "  v{} (epoch {}): {} with {} {unit}",
                        m.version, m.epoch, m.kind, m.cardinality
                    );
                }
                Ok(true)
            }
            ["gc"] => {
                let freed = self.ringo.catalog_gc();
                let cat = self.ringo.catalog();
                println!(
                    "freed {freed} version(s); {} retired remain, {} pinned reader(s)",
                    cat.retired_count(),
                    cat.pinned_readers()
                );
                Ok(true)
            }
            ["compact", name] => {
                let Some((version, stats)) = self.ringo.compact_graph(name) else {
                    return err("no graph with that name");
                };
                println!(
                    "graph {name}: v{version} published, {} reclaimed \
                     ({} dead slab bytes before, {} owned lists rewritten)",
                    format_bytes(stats.reclaimed_bytes()),
                    format_bytes(stats.before.dead_slab_bytes()),
                    stats.before.owned_lists
                );
                Ok(true)
            }
            [verb @ ("addedge" | "deledge"), name, src, dst] => {
                let (Ok(src), Ok(dst)) = (src.parse(), dst.parse()) else {
                    return err("node ids are integers");
                };
                // Copy-on-write, as `compact` does it: the clone shares
                // every list but the two the edit copies.
                let mut next = DirectedGraph::clone(graph(&self.ringo.snapshot(), name)?);
                let changed = match *verb {
                    "addedge" => next.add_edge(src, dst),
                    _ => next.del_edge(src, dst),
                };
                if !changed {
                    println!("graph {name}: unchanged");
                    return Ok(true);
                }
                let edges = next.edge_count();
                let v = self.ringo.publish_graph(name, next);
                println!("graph {name}: {edges} edges (v{v})");
                Ok(true)
            }
            ["gen", "so", name, rest @ ..] => {
                let nums: Vec<usize> = rest.iter().filter_map(|s| s.parse().ok()).collect();
                let cfg = StackOverflowConfig {
                    questions: nums.first().copied().unwrap_or(8_000),
                    answers: nums.get(1).copied().unwrap_or(14_000),
                    users: nums.get(2).copied().unwrap_or(3_000),
                    ..Default::default()
                };
                let t = self.ringo.generate_stackoverflow(&cfg);
                let rows = t.n_rows();
                let v = self.ringo.publish_table(name, t);
                println!("table {name}: {rows} rows (v{v})");
                Ok(true)
            }
            ["gen", "lj", name, rest @ ..] => {
                let scale: f64 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(0.01);
                let t = self.ringo.generate_lj_like(scale, 42);
                let rows = t.n_rows();
                let v = self.ringo.publish_table(name, t);
                println!("table {name}: {rows} rows (v{v})");
                Ok(true)
            }
            ["load", name, path, schema_spec] => {
                let mut cols = Vec::new();
                for part in schema_spec.split(',') {
                    let (cname, ty) = part
                        .split_once(':')
                        .ok_or(format!("bad column spec {part:?} (want name:type)"))?;
                    let ty = match ty {
                        "int" => ColumnType::Int,
                        "float" => ColumnType::Float,
                        "str" => ColumnType::Str,
                        other => return Err(format!("unknown type {other:?}")),
                    };
                    cols.push((cname.to_string(), ty));
                }
                let schema = Schema::new(cols);
                let t = self
                    .ringo
                    .load_table_tsv(&schema, std::path::Path::new(path))
                    .map_err(|e| e.to_string())?;
                let rows = t.n_rows();
                let v = self.ringo.publish_table(name, t);
                println!("table {name}: {rows} rows (v{v})");
                Ok(true)
            }
            ["save", name, path] => {
                let snap = self.ringo.snapshot();
                let t = table(&snap, name)?;
                self.ringo
                    .save_table_tsv(t, std::path::Path::new(path))
                    .map_err(|e| e.to_string())?;
                println!("wrote {path}");
                Ok(true)
            }
            ["show", name, rest @ ..] => {
                let snap = self.ringo.snapshot();
                let t = table(&snap, name)?;
                let n: usize = rest.first().and_then(|s| s.parse().ok()).unwrap_or(10);
                let names: Vec<&str> = t.schema().iter().map(|(n, _)| n).collect();
                println!("{}", names.join("\t"));
                for row in 0..n.min(t.n_rows()) {
                    let cells: Vec<String> = names
                        .iter()
                        .map(|c| match t.get(row, c).expect("valid column") {
                            ringo::Value::Int(v) => v.to_string(),
                            ringo::Value::Float(v) => format!("{v:.4}"),
                            ringo::Value::Str(v) => v,
                        })
                        .collect();
                    println!("{}", cells.join("\t"));
                }
                Ok(true)
            }
            ["select", out, name, col, op, value] => {
                let snap = self.ringo.snapshot();
                let t = table(&snap, name)?;
                let pred = build_predicate(t.schema(), col, op, value)?;
                let r = self.ringo.select(t, &pred).map_err(|e| e.to_string())?;
                let rows = r.n_rows();
                let v = self.ringo.publish_table(out, r);
                println!("table {out}: {rows} rows (v{v})");
                Ok(true)
            }
            ["query", out, name, clauses @ ..] => {
                let snap = self.ringo.snapshot();
                let t = table(&snap, name)?;
                let q = apply_clauses(&snap, self.ringo.query(t), clauses)?;
                let r = q.collect().map_err(|e| e.to_string())?;
                let (rows, cols) = (r.n_rows(), r.n_cols());
                let v = self.ringo.publish_table(out, r);
                println!("table {out}: {rows} rows x {cols} cols (v{v})");
                Ok(true)
            }
            ["explain", name, clauses @ ..] => {
                let snap = self.ringo.snapshot();
                let t = table(&snap, name)?;
                let q = apply_clauses(&snap, self.ringo.query(t), clauses)?;
                print!("{}", q.explain().map_err(|e| e.to_string())?);
                Ok(true)
            }
            ["profile", name, clauses @ ..] => {
                let snap = self.ringo.snapshot();
                let t = table(&snap, name)?;
                let q = apply_clauses(&snap, self.ringo.query(t), clauses)?;
                print!("{}", q.explain_analyze().map_err(|e| e.to_string())?);
                Ok(true)
            }
            ["stats"] => {
                let pool = ringo::concurrent::pool_stats();
                println!(
                    "pool: {} workers ({} busy now), {} jobs, {} chunks, {:.1?} busy",
                    pool.workers,
                    pool.busy_workers,
                    pool.jobs_dispatched,
                    pool.chunks_executed,
                    pool.busy
                );
                println!(
                    "mem: {} current, {} peak, {} allocations",
                    ringo::trace::mem::format_bytes(ringo::trace::mem::current_bytes()),
                    ringo::trace::mem::format_bytes(ringo::trace::mem::peak_bytes()),
                    ringo::trace::mem::alloc_count()
                );
                let cat = self.ringo.catalog();
                println!(
                    "catalog: epoch {}, {} entries, {} retired, {} pinned reader(s)",
                    cat.epoch(),
                    cat.list().len(),
                    cat.retired_count(),
                    cat.pinned_readers()
                );
                println!(
                    "flight recorder: {} (events {} recorded, {} dropped across {} threads)",
                    if ringo::trace::enabled() { "on" } else { "off" },
                    ringo::trace::events::total_recorded(),
                    ringo::trace::events::total_dropped(),
                    ringo::trace::timelines_snapshot().len()
                );
                Ok(true)
            }
            ["join", out, left, right, lcol, rcol] => {
                let snap = self.ringo.snapshot();
                let l = table(&snap, left)?;
                let r = table(&snap, right)?;
                let j = self
                    .ringo
                    .join(l, r, lcol, rcol)
                    .map_err(|e| e.to_string())?;
                let (rows, cols) = (j.n_rows(), j.n_cols());
                let v = self.ringo.publish_table(out, j);
                println!("table {out}: {rows} rows x {cols} cols (v{v})");
                Ok(true)
            }
            ["group", out, name, col, "count"] => {
                let snap = self.ringo.snapshot();
                let t = table(&snap, name)?;
                let g = self
                    .ringo
                    .group_by(t, &[col], None, ringo::AggOp::Count, "count")
                    .map_err(|e| e.to_string())?;
                let rows = g.n_rows();
                let v = self.ringo.publish_table(out, g);
                println!("table {out}: {rows} groups (v{v})");
                Ok(true)
            }
            ["order", name, col, rest @ ..] => {
                let asc = rest.first().is_none_or(|d| *d != "desc");
                // Copy-on-write in the catalog world: sort a private copy
                // and publish it; pinned readers keep the unsorted version.
                let snap = self.ringo.snapshot();
                let mut t = table(&snap, name)?.clone();
                self.ringo
                    .order_by(&mut t, &[col], asc)
                    .map_err(|e| e.to_string())?;
                drop(snap);
                let v = self.ringo.publish_table(name, t);
                println!("table {name} sorted by {col} (v{v})");
                Ok(true)
            }
            ["describe", name] => {
                let snap = self.ringo.snapshot();
                let t = table(&snap, name)?;
                let d = t.describe();
                println!("column\ttype\tcount\tdistinct\tmin\tmax\tmean");
                for row in 0..d.n_rows() {
                    let cell = |c: &str| match d.get(row, c).expect("describe schema") {
                        ringo::Value::Int(v) => v.to_string(),
                        ringo::Value::Float(v) => format!("{v:.3}"),
                        ringo::Value::Str(v) => v,
                    };
                    println!(
                        "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                        cell("column"),
                        cell("type"),
                        cell("count"),
                        cell("distinct"),
                        cell("min"),
                        cell("max"),
                        cell("mean")
                    );
                }
                Ok(true)
            }
            ["sample", out, name, n] => {
                let snap = self.ringo.snapshot();
                let t = table(&snap, name)?;
                let n: usize = n.parse().map_err(|_| "bad sample size".to_string())?;
                let s = t.sample_rows(n, 42).map_err(|e| e.to_string())?;
                let rows = s.n_rows();
                let v = self.ringo.publish_table(out, s);
                println!("table {out}: {rows} rows (v{v})");
                Ok(true)
            }
            ["triads", name] => {
                let snap = self.ringo.snapshot();
                let g = graph(&snap, name)?;
                let census = self.ringo.triad_census(g);
                for (tname, count) in ringo::algo::TRIAD_NAMES.iter().zip(census.counts) {
                    if count > 0 {
                        println!("  {tname:>4}: {count}");
                    }
                }
                Ok(true)
            }
            ["savegraph", name, path] => {
                let snap = self.ringo.snapshot();
                let g = graph(&snap, name)?;
                self.ringo
                    .save_graph(g, std::path::Path::new(path))
                    .map_err(|e| e.to_string())?;
                println!("wrote {path}");
                Ok(true)
            }
            ["loadgraph", name, path] => {
                let g = self
                    .ringo
                    .load_graph(std::path::Path::new(path))
                    .map_err(|e| e.to_string())?;
                let (nodes, edges) = (g.node_count(), g.edge_count());
                let v = self.ringo.publish_graph(name, g);
                println!("graph {name}: {nodes} nodes, {edges} edges (v{v})");
                Ok(true)
            }
            ["tograph", name, tname, src, dst] => {
                let snap = self.ringo.snapshot();
                let t = table(&snap, tname)?;
                let g = self
                    .ringo
                    .to_graph(t, src, dst)
                    .map_err(|e| e.to_string())?;
                let (nodes, edges) = (g.node_count(), g.edge_count());
                let v = self.ringo.publish_graph(name, g);
                println!("graph {name}: {nodes} nodes, {edges} edges (v{v})");
                Ok(true)
            }
            ["totable", name, gname] => {
                let snap = self.ringo.snapshot();
                let g = graph(&snap, gname)?;
                let t = self.ringo.to_edge_table(g);
                let rows = t.n_rows();
                let v = self.ringo.publish_table(name, t);
                println!("table {name}: {rows} rows (v{v})");
                Ok(true)
            }
            ["pagerank", name, rest @ ..] => {
                let snap = self.ringo.snapshot();
                let g = graph(&snap, name)?;
                let top: usize = rest.first().and_then(|s| s.parse().ok()).unwrap_or(10);
                let mut pr = self.ringo.pagerank(g);
                pr.sort_by(|a, b| b.1.total_cmp(&a.1));
                for (id, score) in pr.iter().take(top) {
                    println!("  node {id}: {score:.6}");
                }
                Ok(true)
            }
            ["triangles", name] => {
                let snap = self.ringo.snapshot();
                let g = graph(&snap, name)?;
                let u = g.to_undirected();
                println!("{} triangles", self.ringo.count_triangles(&u));
                Ok(true)
            }
            ["wcc", name] => {
                let snap = self.ringo.snapshot();
                let g = graph(&snap, name)?;
                let c = self.ringo.wcc(g);
                println!(
                    "{} weak components, largest {}",
                    c.n_components(),
                    c.largest()
                );
                Ok(true)
            }
            ["scc", name] => {
                let snap = self.ringo.snapshot();
                let g = graph(&snap, name)?;
                let c = self.ringo.scc(g);
                println!(
                    "{} strong components, largest {}",
                    c.n_components(),
                    c.largest()
                );
                Ok(true)
            }
            ["info", name] => {
                let snap = self.ringo.snapshot();
                if let Ok(t) = table(&snap, name) {
                    println!(
                        "table {name}: {} rows x {} cols, ~{} bytes",
                        t.n_rows(),
                        t.n_cols(),
                        t.mem_size()
                    );
                    for (cn, ty) in t.schema().iter() {
                        println!("  {cn}: {ty}");
                    }
                } else if let Ok(g) = graph(&snap, name) {
                    println!(
                        "graph {name}: {} nodes, {} edges, ~{} bytes",
                        g.node_count(),
                        g.edge_count(),
                        g.mem_size()
                    );
                    let adj = g.adjacency_stats();
                    println!(
                        "  rows: {} stored neighbour slots, 4 B each",
                        g.total_degree(Direction::Both)
                    );
                    println!(
                        "  adjacency: {} bulk rows + {} owned lists ({}, {} shared with \
                         another version: {}), {} live / {} slab bytes ({} dead; \
                         `compact {name}` reclaims)",
                        adj.slab_lists,
                        adj.owned_lists,
                        format_bytes(adj.owned_bytes),
                        adj.shared_lists,
                        format_bytes(adj.shared_bytes),
                        format_bytes(adj.live_slab_bytes),
                        format_bytes(adj.total_slab_bytes),
                        format_bytes(adj.dead_slab_bytes())
                    );
                } else {
                    return err("no table or graph with that name");
                }
                Ok(true)
            }
            ["timings"] => {
                let agg = self.ringo.op_timings();
                if agg.is_empty() {
                    println!("no operations recorded yet");
                    return Ok(true);
                }
                println!(
                    "{:<22} {:>6} {:>12} {:>12} {:>12} {:>10}",
                    "verb", "calls", "total", "max", "mem", "peak+"
                );
                for t in agg {
                    println!(
                        "{:<22} {:>6} {:>12} {:>12} {:>12} {:>10}",
                        t.name,
                        t.calls,
                        format!("{:.1?}", t.total),
                        format!("{:.1?}", t.max),
                        format_bytes_delta(t.mem_delta),
                        format_bytes_delta(t.max_peak_delta as i64),
                    );
                }
                // How much of the rows the traversals read, and how hard
                // the conversions searched to rank neighbour ids; with
                // tracing on, `trace` times the `convert.fill.rank` pass.
                let count = |name| ringo::trace::counter(name).get();
                println!(
                    "bfs: {} row entries scanned; convert: {} rank entries compared",
                    count("algo.bfs.edges_scanned"),
                    count("convert.rank.scanned"),
                );
                Ok(true)
            }
            ["provenance", rest @ ..] => {
                let n: usize = rest.first().and_then(|s| s.parse().ok()).unwrap_or(20);
                let records = self.ringo.op_log();
                if records.is_empty() {
                    println!("no operations recorded yet");
                    return Ok(true);
                }
                let skip = records.len().saturating_sub(n);
                println!(
                    "{:>4} {:<22} {:>10} {:>10} {:>10} {:>10}  params",
                    "#", "verb", "rows_in", "rows_out", "wall", "mem"
                );
                for r in &records[skip..] {
                    println!(
                        "{:>4} {:<22} {:>10} {:>10} {:>10} {:>10}  {}",
                        r.seq,
                        r.name,
                        r.rows_in,
                        r.rows_out,
                        format!("{:.1?}", r.wall),
                        format_bytes_delta(r.mem_delta),
                        r.params,
                    );
                }
                Ok(true)
            }
            ["trace"] => {
                if !ringo::trace::enabled() {
                    println!("tracing is off; start the shell with RINGO_TRACE_JSON=<path>");
                    return Ok(true);
                }
                print!("{}", ringo::trace::report());
                Ok(true)
            }
            ["trace", "reset"] => {
                ringo::trace::reset();
                self.ringo.clear_op_log();
                println!("trace registry and op-log cleared");
                Ok(true)
            }
            ["bfs", name, src] => {
                let snap = self.ringo.snapshot();
                let g = graph(&snap, name)?;
                let src: i64 = src.parse().map_err(|_| "bad node id".to_string())?;
                let d = self.ringo.bfs(g, src, Direction::Out);
                println!("{} nodes reachable from {src}", d.len());
                Ok(true)
            }
            ["bfstree", name, src] => {
                let snap = self.ringo.snapshot();
                let g = graph(&snap, name)?;
                let src: i64 = src.parse().map_err(|_| "bad node id".to_string())?;
                let t = self.ringo.bfs_tree(g, src, Direction::Out);
                let mut sample: Vec<(i64, i64)> = t
                    .iter()
                    .filter(|(id, _)| *id != src)
                    .map(|(id, p)| (id, *p))
                    .collect();
                sample.sort_unstable();
                println!("BFS tree from {src}: {} nodes", t.len());
                for (id, p) in sample.iter().take(10) {
                    println!("  {p} -> {id}");
                }
                if sample.len() > 10 {
                    println!("  ... {} more edges", sample.len() - 10);
                }
                Ok(true)
            }
            _ => err("unknown command; try `help`"),
        }
    }
}

/// Builds a type-aware predicate for `col <op> value`, resolving the
/// comparison type against `schema` (used by both the eager `select`
/// command and the lazy `query`/`explain` where-clauses).
fn build_predicate(schema: &Schema, col: &str, op: &str, value: &str) -> Result<Predicate, String> {
    let cmp = match op {
        "=" => Cmp::Eq,
        "!=" => Cmp::Ne,
        "<" => Cmp::Lt,
        "<=" => Cmp::Le,
        ">" => Cmp::Gt,
        ">=" => Cmp::Ge,
        other => return Err(format!("unknown operator {other:?}")),
    };
    let ci = schema.index_of(col).map_err(|e| e.to_string())?;
    Ok(match schema.column_type(ci) {
        ColumnType::Int => Predicate::int(
            col,
            cmp,
            value.parse().map_err(|_| format!("bad int {value:?}"))?,
        ),
        ColumnType::Float => Predicate::float(
            col,
            cmp,
            value.parse().map_err(|_| format!("bad float {value:?}"))?,
        ),
        ColumnType::Str => Predicate::Str {
            column: col.to_string(),
            cmp,
            value: value.to_string(),
        },
    })
}

/// Applies `query`/`explain` clause tokens to a lazy builder:
/// `where <col> <op> <value>`, `project <a,b,..>`,
/// `join <table> <lcol> <rcol>`. Where-clause types resolve against the
/// builder's current schema, so predicates after a join or projection
/// see the derived columns. Joined tables resolve by name from the same
/// pinned snapshot as the query's base table, so the whole plan reads
/// one consistent catalog version.
fn apply_clauses<'a>(
    snap: &'a Snapshot,
    mut q: ringo::QueryBuilder<'a>,
    clauses: &[&str],
) -> Result<ringo::QueryBuilder<'a>, String> {
    let mut i = 0;
    while i < clauses.len() {
        match clauses[i] {
            "where" => {
                let [col, op, value] = clauses[i + 1..]
                    .get(..3)
                    .ok_or("where needs <col> <op> <value>")?
                else {
                    unreachable!("get(..3) yields 3 tokens");
                };
                let schema = q.schema().map_err(|e| e.to_string())?;
                q = q.select(&build_predicate(&schema, col, op, value)?);
                i += 4;
            }
            "project" => {
                let spec = clauses
                    .get(i + 1)
                    .ok_or("project needs a comma-separated column list")?;
                let cols: Vec<&str> = spec.split(',').collect();
                q = q.project(&cols);
                i += 2;
            }
            "join" => {
                let [name, lcol, rcol] = clauses[i + 1..]
                    .get(..3)
                    .ok_or("join needs <table> <lcol> <rcol>")?
                else {
                    unreachable!("get(..3) yields 3 tokens");
                };
                q = q
                    .join_named(snap, name, lcol, rcol)
                    .map_err(|e| e.to_string())?;
                i += 4;
            }
            other => {
                return Err(format!(
                    "unknown clause {other:?} (want where/project/join)"
                ))
            }
        }
    }
    Ok(q)
}

fn main() {
    // RINGO_TRACE_JSON=<path> enables span tracing; the guard dumps JSON
    // there on exit.
    let _trace = ringo::trace::init_from_env();
    let mut shell = Shell::new();
    println!(
        "Ringo interactive shell ({} threads). Type `help` for commands.",
        shell.ringo.threads()
    );
    let stdin = std::io::stdin();
    loop {
        print!("ringo> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let start = std::time::Instant::now();
        match shell.exec(line.trim()) {
            Ok(true) => println!("  [{:.1?}]", start.elapsed()),
            Ok(false) => break,
            Err(msg) => println!("error: {msg}"),
        }
    }
    println!("bye");
}
