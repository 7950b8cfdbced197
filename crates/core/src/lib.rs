//! Ringo — interactive graph analytics on big-memory machines.
//!
//! This crate is the user-facing facade of the Ringo reproduction: one
//! [`Ringo`] context whose methods mirror the Python verbs of the paper's
//! §4.1 demo —
//!
//! ```
//! use ringo_core::{Ringo, Predicate};
//!
//! let ringo = Ringo::new();
//! // P = ringo.LoadTableTSV(schema, 'posts.tsv')   (here: generated)
//! let posts = ringo.generate_stackoverflow(&Default::default());
//! // JP = ringo.Select(P, 'Tag=Java')
//! let java = ringo.select(&posts, &Predicate::str_eq("Tag", "java")).unwrap();
//! // Q = ringo.Select(JP, 'Type=question'); A = ...
//! let questions = ringo.select(&java, &Predicate::str_eq("Type", "question")).unwrap();
//! let answers = ringo.select(&java, &Predicate::str_eq("Type", "answer")).unwrap();
//! // QA = ringo.Join(Q, A, 'AnswerId', 'PostId')
//! let qa = ringo.join(&questions, &answers, "AcceptedAnswerId", "PostId").unwrap();
//! // G = ringo.ToGraph(QA, 'UserId-1', 'UserId-2')
//! let g = ringo.to_graph(&qa, "UserId", "UserId-1").unwrap();
//! // PR = ringo.GetPageRank(G); S = ringo.TableFromHashMap(PR, 'User', 'Scr')
//! let pr = ringo.pagerank(&g);
//! let scores = ringo.table_from_scores(&pr, "User", "Scr");
//! assert_eq!(scores.n_cols(), 2);
//! ```
//!
//! The submodule crates remain directly accessible for power users:
//! [`table`], [`graph`], [`algo`], [`gen`], [`convert`], [`concurrent`].

#![warn(missing_docs)]

pub mod catalog;
pub mod mem;
pub mod oplog;
pub mod query;

pub use ringo_algo as algo;
pub use ringo_concurrent as concurrent;
pub use ringo_convert as convert;
pub use ringo_gen as gen;
pub use ringo_graph as graph;
pub use ringo_table as table;
pub use ringo_trace as trace;

pub use catalog::{Catalog, Dataset, DatasetKind, Snapshot, VersionMeta};
pub use oplog::{OpLog, OpRecord, OpTiming};
pub use query::QueryBuilder;

pub use ringo_algo::{Direction, PageRankConfig};
pub use ringo_graph::{DirectedGraph, NodeId, NodeValues, UndirectedGraph, WeightedDigraph};
pub use ringo_table::exec::NodeStat;
pub use ringo_table::{AggOp, Cmp, ColumnType, Predicate, Schema, Table, TableError, Value};

use std::convert::Infallible;
use std::path::Path;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TableError>;

/// The Ringo analytics context.
///
/// Holds the worker-thread count applied to every table and parallel
/// kernel it creates, plus the **op-log** — a bounded history of every
/// verb issued through this context (name, parameters, cardinalities,
/// latency, allocator deltas; see [`oplog`]). Clones share the same log,
/// so a context can still be passed around freely.
#[derive(Clone, Debug)]
pub struct Ringo {
    threads: usize,
    ops: OpLog,
    catalog: Catalog,
}

impl Default for Ringo {
    fn default() -> Self {
        Self::new()
    }
}

impl Ringo {
    /// Context using the machine's available parallelism (respects the
    /// `RINGO_THREADS` environment variable).
    pub fn new() -> Self {
        Self {
            threads: ringo_concurrent::num_threads(),
            ops: OpLog::default(),
            catalog: Catalog::new(),
        }
    }

    /// Context with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ops: OpLog::default(),
            catalog: Catalog::new(),
        }
    }

    /// Worker threads used by operations issued through this context.
    pub fn threads(&self) -> usize {
        self.threads
    }

    // ---- observability ----

    /// The operations recorded by this context (and its clones), oldest
    /// first. See [`oplog::OpRecord`].
    pub fn op_log(&self) -> Vec<OpRecord> {
        self.ops.records()
    }

    /// Per-verb aggregates of the op-log, sorted by total time — the data
    /// behind the shell's `timings` command.
    pub fn op_timings(&self) -> Vec<OpTiming> {
        oplog::aggregate(&self.ops.records())
    }

    /// Clears the op-log history.
    pub fn clear_op_log(&self) {
        self.ops.clear()
    }

    // ---- versioned catalog (snapshots; see [`catalog`]) ----

    /// The versioned catalog shared by this context and its clones.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Publishes `table` as the new current version of `name`, returning
    /// its per-name version number. Snapshots taken earlier keep reading
    /// the version they hold.
    pub fn publish_table(&self, name: &str, mut table: Table) -> u64 {
        table.set_threads(self.threads);
        let rows = table.n_rows();
        let Ok(v) = self.ops.run::<_, Infallible>(
            "publish",
            format!("{name} (table)"),
            rows,
            |_| rows,
            || Ok(self.catalog.publish_table(name, table)),
        );
        v
    }

    /// Publishes `graph` as the new current version of `name`.
    pub fn publish_graph(&self, name: &str, graph: DirectedGraph) -> u64 {
        let edges = graph.edge_count();
        let Ok(v) = self.ops.run::<_, Infallible>(
            "publish",
            format!("{name} (graph)"),
            edges,
            |_| edges,
            || Ok(self.catalog.publish_graph(name, graph)),
        );
        v
    }

    /// The current version of `name`, if bound. A point read; take a
    /// [`Ringo::snapshot`] for multi-step consistency.
    pub fn get(&self, name: &str) -> Option<Dataset> {
        self.catalog.get(name)
    }

    /// Every version published under `name`, oldest first (metadata
    /// only).
    pub fn versions(&self, name: &str) -> Vec<VersionMeta> {
        self.catalog.versions(name)
    }

    /// Takes the current root: every name resolved through the returned
    /// [`Snapshot`] — by [`Ringo::query_at`], by algorithm verbs fed
    /// [`Snapshot::graph`] borrows — reads one consistent version of the
    /// catalog for the snapshot's whole lifetime.
    pub fn snapshot(&self) -> Snapshot {
        let Ok(snapshot) =
            self.ops
                .run::<_, Infallible>("snapshot", String::new(), 0, Snapshot::len, || {
                    Ok(self.catalog.snapshot())
                });
        snapshot
    }

    /// How many displaced catalog versions have been freed since the
    /// previous call (see [`Catalog::gc`]): a version is freed when the
    /// last snapshot holding it drops.
    pub fn catalog_gc(&self) -> usize {
        let Ok(freed) = self.ops.run::<_, Infallible>(
            "catalog_gc",
            String::new(),
            0,
            |freed| *freed,
            || Ok(self.catalog.gc()),
        );
        freed
    }

    /// Compacts the adjacency storage of graph `name` and publishes the
    /// rewrite as a new version (see [`Catalog::compact_graph`]).
    pub fn compact_graph(&self, name: &str) -> Option<(u64, ringo_graph::CompactStats)> {
        let Ok(r) = self.ops.run::<_, Infallible>(
            "compact",
            name.to_string(),
            0,
            |r: &Option<(u64, ringo_graph::CompactStats)>| {
                r.as_ref().map_or(0, |(_, s)| s.reclaimed_bytes())
            },
            || Ok(self.catalog.compact_graph(name)),
        );
        r
    }

    // ---- table and graph I/O (loads: file bytes in; saves: rows or edges) ----

    /// Loads a TSV file under `schema` (the paper's `LoadTableTSV`).
    pub fn load_table_tsv(&self, schema: &Schema, path: &Path) -> Result<Table> {
        self.ops.run(
            "load_table_tsv",
            format!("{}", path.display()),
            file_bytes(path),
            Table::n_rows,
            || ringo_table::load_dsv_threads(path, schema, '\t', self.threads),
        )
    }

    /// Saves a table as TSV.
    pub fn save_table_tsv(&self, table: &Table, path: &Path) -> Result<()> {
        let rows = table.n_rows();
        self.ops.run(
            "save_table_tsv",
            format!("{}", path.display()),
            rows,
            |_| rows,
            || ringo_table::save_tsv(table, path),
        )
    }

    /// Loads a delimiter-separated file (e.g. CSV with `,`).
    pub fn load_table_dsv(&self, schema: &Schema, path: &Path, delimiter: char) -> Result<Table> {
        self.ops.run(
            "load_table_dsv",
            format!("{} ({delimiter:?})", path.display()),
            file_bytes(path),
            Table::n_rows,
            || ringo_table::load_dsv_threads(path, schema, delimiter, self.threads),
        )
    }

    /// Saves a graph as a SNAP-style text edge list.
    pub fn save_graph(&self, g: &DirectedGraph, path: &Path) -> std::io::Result<()> {
        let edges = g.edge_count();
        self.ops.run(
            "save_graph",
            format!("{}", path.display()),
            edges,
            |_| edges,
            || ringo_graph::io::save_edge_list(g, path),
        )
    }

    /// Loads a graph from a SNAP-style text edge list.
    pub fn load_graph(&self, path: &Path) -> std::io::Result<DirectedGraph> {
        self.ops.run(
            "load_graph",
            format!("{}", path.display()),
            file_bytes(path),
            DirectedGraph::edge_count,
            || ringo_graph::io::load_edge_list(path),
        )
    }

    /// Saves a graph in the compact binary format (faster to reload;
    /// keeps isolated nodes).
    pub fn save_graph_binary(&self, g: &DirectedGraph, path: &Path) -> std::io::Result<()> {
        let edges = g.edge_count();
        self.ops.run(
            "save_graph_binary",
            format!("{}", path.display()),
            edges,
            |_| edges,
            || ringo_graph::io::save_binary(g, path),
        )
    }

    /// Loads a graph written by [`Ringo::save_graph_binary`].
    pub fn load_graph_binary(&self, path: &Path) -> std::io::Result<DirectedGraph> {
        self.ops.run(
            "load_graph_binary",
            format!("{}", path.display()),
            file_bytes(path),
            DirectedGraph::edge_count,
            || ringo_graph::io::load_binary(path),
        )
    }

    // ---- relational operators ----

    /// Select into a new table, a view of `table`'s columns (the paper's
    /// `Select`).
    pub fn select(&self, table: &Table, predicate: &Predicate) -> Result<Table> {
        self.ops.run(
            "select",
            format!("{predicate:?}"),
            table.n_rows(),
            Table::n_rows,
            || table.select(predicate),
        )
    }

    /// In-place select, modifying `table` (the Table 4 variant).
    pub fn select_in_place(&self, table: &mut Table, predicate: &Predicate) -> Result<usize> {
        let rows_in = table.n_rows();
        self.ops.run(
            "select_in_place",
            format!("{predicate:?}"),
            rows_in,
            |kept| *kept,
            || table.select_in_place(predicate),
        )
    }

    /// Hash join (the paper's `Join`).
    pub fn join(
        &self,
        left: &Table,
        right: &Table,
        left_col: &str,
        right_col: &str,
    ) -> Result<Table> {
        self.ops.run(
            "join",
            format!("on {left_col} = {right_col}"),
            left.n_rows() + right.n_rows(),
            Table::n_rows,
            || left.join(right, left_col, right_col),
        )
    }

    /// Group & aggregate.
    pub fn group_by(
        &self,
        table: &Table,
        group_cols: &[&str],
        agg_col: Option<&str>,
        op: AggOp,
        out_name: &str,
    ) -> Result<Table> {
        self.ops.run(
            "group_by",
            format!(
                "by {group_cols:?} {op:?}({}) as {out_name}",
                agg_col.unwrap_or("*")
            ),
            table.n_rows(),
            Table::n_rows,
            || table.group_by(group_cols, agg_col, op, out_name),
        )
    }

    /// Sorts `table` in place by `cols` (paper `Order`).
    pub fn order_by(&self, table: &mut Table, cols: &[&str], ascending: bool) -> Result<()> {
        let rows = table.n_rows();
        self.ops.run(
            "order_by",
            format!("by {cols:?} {}", if ascending { "asc" } else { "desc" }),
            rows,
            |_| rows,
            || table.order_by(cols, ascending),
        )
    }

    /// Similarity join (Ringo's `SimJoin`).
    pub fn sim_join(
        &self,
        left: &Table,
        right: &Table,
        left_cols: &[&str],
        right_cols: &[&str],
        threshold: f64,
    ) -> Result<Table> {
        self.ops.run(
            "sim_join",
            format!("{left_cols:?} ~ {right_cols:?} <= {threshold}"),
            left.n_rows() + right.n_rows(),
            Table::n_rows,
            || left.sim_join(right, left_cols, right_cols, threshold),
        )
    }

    /// Temporal predecessor–successor join (Ringo's `NextK`).
    pub fn next_k(
        &self,
        table: &Table,
        group_col: Option<&str>,
        order_col: &str,
        k: usize,
    ) -> Result<Table> {
        self.ops.run(
            "next_k",
            format!("group {} order {order_col} k={k}", group_col.unwrap_or("*")),
            table.n_rows(),
            Table::n_rows,
            || table.next_k(group_col, order_col, k),
        )
    }

    // ---- conversions ----

    /// Table → directed graph via the sort-first algorithm (the paper's
    /// `ToGraph`).
    pub fn to_graph(&self, table: &Table, src_col: &str, dst_col: &str) -> Result<DirectedGraph> {
        self.ops.run(
            "to_graph",
            format!("{src_col} -> {dst_col}"),
            table.n_rows(),
            DirectedGraph::edge_count,
            || ringo_convert::table_to_graph_threads(table, src_col, dst_col, self.threads),
        )
    }

    /// Table → undirected graph.
    pub fn to_undirected_graph(
        &self,
        table: &Table,
        src_col: &str,
        dst_col: &str,
    ) -> Result<UndirectedGraph> {
        self.ops.run(
            "to_undirected_graph",
            format!("{src_col} -- {dst_col}"),
            table.n_rows(),
            UndirectedGraph::edge_count,
            || ringo_convert::table_to_undirected_threads(table, src_col, dst_col, self.threads),
        )
    }

    /// Graph → edge table.
    pub fn to_edge_table(&self, g: &DirectedGraph) -> Table {
        let Ok(t) = self.ops.run::<_, Infallible>(
            "to_edge_table",
            String::new(),
            g.edge_count(),
            Table::n_rows,
            || Ok(ringo_convert::graph_to_edge_table(g, self.threads)),
        );
        t
    }

    /// Graph → node table with degrees.
    pub fn to_node_table(&self, g: &DirectedGraph) -> Table {
        let Ok(t) = self.ops.run::<_, Infallible>(
            "to_node_table",
            String::new(),
            g.node_count(),
            Table::n_rows,
            || Ok(ringo_convert::graph_to_node_table(g, self.threads)),
        );
        t
    }

    /// Algorithm scores → table (the paper's `TableFromHashMap`).
    pub fn table_from_scores(
        &self,
        scores: &[(NodeId, f64)],
        id_col: &str,
        score_col: &str,
    ) -> Table {
        let Ok(t) = self.ops.run::<_, Infallible>(
            "table_from_scores",
            format!("{id_col}, {score_col}"),
            scores.len(),
            Table::n_rows,
            || Ok(ringo_convert::scores_to_table(scores, id_col, score_col)),
        );
        t
    }

    // ---- graph analytics (the paper's `GetPageRank` & friends) ----

    /// PageRank with the paper's defaults (0.85 damping, 10 iterations),
    /// parallelized over this context's threads.
    pub fn pagerank(&self, g: &DirectedGraph) -> Vec<(NodeId, f64)> {
        let Ok(scores) = self.ops.run::<_, Infallible>(
            "pagerank",
            String::new(),
            g.edge_count(),
            Vec::len,
            || Ok(pairs(ringo_algo::pagerank(g, &self.pagerank_config()))),
        );
        scores
    }

    /// The paper's PageRank defaults on this context's threads.
    fn pagerank_config(&self) -> PageRankConfig {
        PageRankConfig {
            threads: self.threads,
            ..PageRankConfig::default()
        }
    }

    /// PageRank with full parameter control.
    pub fn pagerank_with(&self, g: &DirectedGraph, config: &PageRankConfig) -> Vec<(NodeId, f64)> {
        let Ok(scores) = self.ops.run::<_, Infallible>(
            "pagerank",
            format!("d={} iters={}", config.damping, config.iterations),
            g.edge_count(),
            Vec::len,
            || Ok(pairs(ringo_algo::pagerank(g, config))),
        );
        scores
    }

    /// HITS hub/authority scores.
    pub fn hits(
        &self,
        g: &DirectedGraph,
        iterations: usize,
    ) -> Vec<(NodeId, ringo_algo::HitsScores)> {
        let Ok(scores) = self.ops.run::<_, Infallible>(
            "hits",
            format!("iters={iterations}"),
            g.edge_count(),
            Vec::len,
            || Ok(pairs(ringo_algo::hits(g, iterations, self.threads))),
        );
        scores
    }

    /// Parallel triangle count of an undirected graph.
    pub fn count_triangles(&self, g: &UndirectedGraph) -> u64 {
        let Ok(n) = self.ops.run::<_, Infallible>(
            "count_triangles",
            String::new(),
            g.edge_count(),
            |n| usize::try_from(*n).unwrap_or(usize::MAX),
            || Ok(ringo_algo::count_triangles(g, self.threads)),
        );
        n
    }

    /// BFS hop distances of the reached nodes, as slot-ordered columns on
    /// `g`'s id index (see [`NodeValues`]).
    pub fn bfs(&self, g: &DirectedGraph, src: NodeId, dir: Direction) -> NodeValues<u32> {
        let Ok(dist) = self.ops.run::<_, Infallible>(
            "bfs",
            format!("from {src} ({dir:?})"),
            g.node_count(),
            NodeValues::len,
            || Ok(ringo_algo::bfs_distances(g, src, dir)),
        );
        dist
    }

    /// BFS tree: each reached node's parent id, deterministic
    /// minimum-slot tie-break (the source is its own parent).
    pub fn bfs_tree(&self, g: &DirectedGraph, src: NodeId, dir: Direction) -> NodeValues<NodeId> {
        let Ok(parents) = self.ops.run::<_, Infallible>(
            "bfs_tree",
            format!("from {src} ({dir:?})"),
            g.node_count(),
            NodeValues::len,
            || Ok(ringo_algo::bfs_tree(g, src, dir)),
        );
        parents
    }

    /// Weakly connected components.
    pub fn wcc(&self, g: &DirectedGraph) -> ringo_algo::Components {
        let Ok(c) = self.ops.run::<_, Infallible>(
            "wcc",
            String::new(),
            g.node_count(),
            ringo_algo::Components::n_components,
            || Ok(ringo_algo::weakly_connected_components(g)),
        );
        c
    }

    /// Strongly connected components.
    pub fn scc(&self, g: &DirectedGraph) -> ringo_algo::Components {
        let Ok(c) = self.ops.run::<_, Infallible>(
            "scc",
            String::new(),
            g.node_count(),
            ringo_algo::Components::n_components,
            || Ok(ringo_algo::strongly_connected_components(g)),
        );
        c
    }

    /// k-core subgraph of an undirected graph.
    pub fn k_core(&self, g: &UndirectedGraph, k: u32) -> UndirectedGraph {
        let Ok(core) = self.ops.run::<_, Infallible>(
            "k_core",
            format!("k={k}"),
            g.node_count(),
            UndirectedGraph::node_count,
            || Ok(ringo_algo::k_core(g, k)),
        );
        core
    }

    /// Table → weighted digraph, with weights from a column or (when
    /// `weight_col` is `None`) from row multiplicity.
    pub fn to_weighted_graph(
        &self,
        table: &Table,
        src_col: &str,
        dst_col: &str,
        weight_col: Option<&str>,
    ) -> Result<WeightedDigraph> {
        self.ops.run(
            "to_weighted_graph",
            format!("{src_col} -> {dst_col} w={}", weight_col.unwrap_or("count")),
            table.n_rows(),
            WeightedDigraph::edge_count,
            || {
                ringo_convert::table_to_weighted_graph_threads(
                    table,
                    src_col,
                    dst_col,
                    weight_col,
                    self.threads,
                )
            },
        )
    }

    /// Weighted PageRank over stored edge weights.
    pub fn pagerank_weighted(&self, g: &WeightedDigraph) -> Vec<(NodeId, f64)> {
        let Ok(scores) = self.ops.run::<_, Infallible>(
            "pagerank_weighted",
            String::new(),
            g.edge_count(),
            Vec::len,
            || {
                Ok(pairs(ringo_algo::pagerank_weighted(
                    g,
                    &self.pagerank_config(),
                )))
            },
        );
        scores
    }

    /// Personalized PageRank from a seed set.
    pub fn personalized_pagerank(&self, g: &DirectedGraph, seeds: &[NodeId]) -> Vec<(NodeId, f64)> {
        let config = self.pagerank_config();
        let Ok(scores) = self.ops.run::<_, Infallible>(
            "personalized_pagerank",
            format!("{} seeds", seeds.len()),
            g.edge_count(),
            Vec::len,
            || Ok(pairs(ringo_algo::personalized_pagerank(g, seeds, &config))),
        );
        scores
    }

    /// Eigenvector centrality.
    pub fn eigenvector_centrality(&self, g: &DirectedGraph) -> Vec<(NodeId, f64)> {
        let Ok(scores) = self.ops.run::<_, Infallible>(
            "eigenvector_centrality",
            String::new(),
            g.edge_count(),
            Vec::len,
            || {
                let scores = ringo_algo::eigenvector_centrality(g, 100, 1e-10, self.threads);
                Ok(pairs(scores))
            },
        );
        scores
    }

    /// The 16-class directed triad census.
    pub fn triad_census(&self, g: &DirectedGraph) -> ringo_algo::TriadCensus {
        let Ok(census) = self.ops.run::<_, Infallible>(
            "triad_census",
            String::new(),
            g.node_count(),
            |_| 16,
            || Ok(ringo_algo::triad_census(g)),
        );
        census
    }

    // ---- data generation (stand-ins for the paper's datasets) ----

    /// Synthetic StackOverflow-like posts table (§4.1 demo data).
    pub fn generate_stackoverflow(&self, config: &ringo_gen::StackOverflowConfig) -> Table {
        let Ok(t) = self.ops.run::<_, Infallible>(
            "generate_stackoverflow",
            format!(
                "q={} a={} users={}",
                config.questions, config.answers, config.users
            ),
            0,
            Table::n_rows,
            || {
                let mut t = ringo_gen::generate_posts(config);
                t.set_threads(self.threads);
                Ok(t)
            },
        );
        t
    }

    /// LiveJournal-like benchmark edge table (Table 2 stand-in).
    pub fn generate_lj_like(&self, scale_factor: f64, seed: u64) -> Table {
        let Ok(t) = self.ops.run::<_, Infallible>(
            "generate_lj_like",
            format!("scale={scale_factor} seed={seed}"),
            0,
            Table::n_rows,
            || {
                let mut t = ringo_gen::edges_to_table(&ringo_gen::lj_like(scale_factor, seed));
                t.set_threads(self.threads);
                Ok(t)
            },
        );
        t
    }

    /// Twitter2010-like benchmark edge table (Table 2 stand-in).
    pub fn generate_tw_like(&self, scale_factor: f64, seed: u64) -> Table {
        let Ok(t) = self.ops.run::<_, Infallible>(
            "generate_tw_like",
            format!("scale={scale_factor} seed={seed}"),
            0,
            Table::n_rows,
            || {
                let mut t = ringo_gen::edges_to_table(&ringo_gen::tw_like(scale_factor, seed));
                t.set_threads(self.threads);
                Ok(t)
            },
        );
        t
    }
}

/// A load verb's input cardinality: the file's length in bytes (0 if it
/// cannot be read — the load then reports why).
fn file_bytes(path: &Path) -> usize {
    std::fs::metadata(path).map_or(0, |m| m.len() as usize)
}

/// A kernel's score column as the `(id, score)` pairs the score verbs return.
fn pairs<T: Copy>(scores: NodeValues<T>) -> Vec<(NodeId, T)> {
    scores.iter().map(|(id, &x)| (id, x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_thread_settings_propagate() {
        let r = Ringo::with_threads(3);
        assert_eq!(r.threads(), 3);
        let t = r.generate_lj_like(0.001, 1);
        assert_eq!(t.threads(), 3);
        let zero = Ringo::with_threads(0);
        assert_eq!(zero.threads(), 1, "clamped");
    }

    #[test]
    fn order_by_verb_logs_cardinalities() {
        let r = Ringo::with_threads(2);
        let mut t = Table::from_int_column("x", vec![3, 1, 2, 1]);
        r.order_by(&mut t, &["x"], true).unwrap();
        assert_eq!(t.int_col("x").unwrap(), &[1, 1, 2, 3]);
        let log = r.op_log();
        let rec = log
            .iter()
            .rev()
            .find(|rec| rec.name == "order_by")
            .expect("order_by recorded");
        assert_eq!(rec.rows_in, 4);
        assert_eq!(rec.rows_out, 4);
        assert!(rec.params.contains("asc"));
    }

    #[test]
    fn demo_pipeline_end_to_end() {
        let ringo = Ringo::with_threads(2);
        let posts = ringo.generate_stackoverflow(&ringo_gen::StackOverflowConfig {
            questions: 400,
            answers: 800,
            users: 150,
            ..Default::default()
        });
        let java = ringo
            .select(&posts, &Predicate::str_eq("Tag", "java"))
            .unwrap();
        assert!(java.n_rows() > 0);
        let q = ringo
            .select(&java, &Predicate::str_eq("Type", "question"))
            .unwrap();
        let a = ringo
            .select(&java, &Predicate::str_eq("Type", "answer"))
            .unwrap();
        let qa = ringo.join(&q, &a, "AcceptedAnswerId", "PostId").unwrap();
        assert!(qa.n_rows() > 0, "some java questions have accepted answers");
        // Asker (UserId) -> answerer (UserId-1).
        let g = ringo.to_graph(&qa, "UserId", "UserId-1").unwrap();
        assert!(g.node_count() > 0);
        let pr = ringo.pagerank(&g);
        let total: f64 = pr.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-6);
        let scores = ringo.table_from_scores(&pr, "User", "Scr");
        assert_eq!(scores.n_rows(), pr.len());
        // The top expert by PageRank is an answerer with many accepted
        // answers: their in-degree in g must be positive.
        let mut ranked = pr.clone();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top = ranked[0].0;
        assert!(g.in_degree(top).unwrap() > 0);
    }

    #[test]
    fn graph_table_roundtrip_through_context() {
        let ringo = Ringo::with_threads(2);
        let edges = ringo.generate_lj_like(0.002, 7);
        let g = ringo.to_graph(&edges, "src", "dst").unwrap();
        let back = ringo.to_edge_table(&g);
        assert_eq!(back.n_rows(), g.edge_count());
        let nodes = ringo.to_node_table(&g);
        assert_eq!(nodes.n_rows(), g.node_count());
        let out_sum: i64 = nodes.int_col("out_deg").unwrap().iter().sum();
        assert_eq!(out_sum as usize, g.edge_count());
    }

    #[test]
    fn weighted_pipeline_through_context() {
        let ringo = Ringo::with_threads(2);
        let posts = ringo.generate_stackoverflow(&ringo_gen::StackOverflowConfig {
            questions: 400,
            answers: 900,
            users: 120,
            ..Default::default()
        });
        let q = ringo
            .select(&posts, &Predicate::str_eq("Type", "question"))
            .unwrap();
        let a = ringo
            .select(&posts, &Predicate::str_eq("Type", "answer"))
            .unwrap();
        let qa = ringo.join(&q, &a, "AcceptedAnswerId", "PostId").unwrap();
        // Multiplicity-weighted influence graph.
        let wg = ringo
            .to_weighted_graph(&qa, "UserId", "UserId-1", None)
            .unwrap();
        assert!(wg.edge_count() <= qa.n_rows());
        let pr = ringo.pagerank_weighted(&wg);
        let total: f64 = pr.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Seeded exploration around the top expert.
        let g = ringo.to_graph(&qa, "UserId", "UserId-1").unwrap();
        let top = pr
            .iter()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .map(|(id, _)| *id)
            .unwrap();
        let ppr = ringo.personalized_pagerank(&g, &[top]);
        assert!(!ppr.is_empty());
        let census = ringo.triad_census(&g);
        let n = g.node_count() as u64;
        assert_eq!(census.total(), n * (n - 1) * (n - 2) / 6);
        let ev = ringo.eigenvector_centrality(&g);
        assert_eq!(ev.len(), g.node_count());
    }

    #[test]
    fn analytics_helpers_run() {
        let ringo = Ringo::with_threads(2);
        let edges = ringo.generate_lj_like(0.002, 9);
        let g = ringo.to_graph(&edges, "src", "dst").unwrap();
        let u = ringo.to_undirected_graph(&edges, "src", "dst").unwrap();
        assert!(ringo.count_triangles(&u) > 0);
        let w = ringo.wcc(&g);
        assert!(w.largest() > g.node_count() / 2, "R-MAT has a giant WCC");
        let s = ringo.scc(&g);
        assert!(s.n_components() >= w.n_components());
        let core = ringo.k_core(&u, 3);
        assert!(core.node_count() < u.node_count());
        let h = ringo.hits(&g, 10);
        assert_eq!(h.len(), g.node_count());
        let src = g.node_ids().next().unwrap();
        let _ = ringo.bfs(&g, src, Direction::Out);
    }
}
