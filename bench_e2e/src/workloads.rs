//! The six workloads. Each is a whole interactive session driven through
//! the `Ringo` facade: set-up builds what the session takes as given from
//! the seed, `session` issues the verbs, and `expected` says what the
//! verbs must have produced (see `oracle`).
//!
//! Sizes are fixed so that every working set leaves the caches of the
//! reference host (L2 4 MiB per core, L3 260 MiB shared); `shrink` divides
//! them by 32 for `--smoke` only.

use crate::oracle::{self, Adjacency, Edge};
use crate::spans::{Layer, Recorder};
use ringo_core::gen::stackoverflow::posts_schema;
use ringo_core::gen::StackOverflowConfig;
use ringo_core::{
    algo, AggOp, Cmp, DirectedGraph, Direction, NodeId, Predicate, Ringo, Schema, Snapshot, Table,
    UndirectedGraph,
};
use std::path::{Path, PathBuf};

/// What a verb's observation is held to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Want {
    /// The value the oracle computed.
    Exactly(u64),
    /// No oracle: the value of the warm-up session, in every session.
    SameEverySession,
}

pub type Expected = (&'static str, Want);

pub trait Workload {
    /// Input rows or edges, the numerator of `items_per_s`.
    fn items(&self) -> (u64, &'static str);
    /// `mem_size()` of what the session takes as given.
    fn input_bytes(&self) -> usize;
    /// One entry per observation a session makes, in order. May consume
    /// data only the oracle needs, so call it once.
    fn expected(&mut self) -> Vec<Expected>;
    /// Untimed per-session preparation of the fresh context.
    fn prepare(&self, _ringo: &Ringo) {}
    fn session(&self, ringo: &Ringo, rec: &mut Recorder);
}

pub struct Spec {
    pub name: &'static str,
    /// Builds the workload's inputs from `seed`; files go under `dir`.
    pub setup: fn(ringo: &Ringo, seed: u64, shrink: u32, dir: &Path) -> Box<dyn Workload>,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "so_session",
        setup: SoSession::setup,
    },
    Spec {
        name: "tw_relational",
        setup: TwRelational::setup,
    },
    Spec {
        name: "tw_convert",
        setup: TwConvert::setup,
    },
    Spec {
        name: "lj_kernels",
        setup: LjKernels::setup,
    },
    Spec {
        name: "lj_triangles",
        setup: LjTriangles::setup,
    },
    Spec {
        name: "lj_churn",
        setup: LjChurn::setup,
    },
];

const TW_SCALE: f64 = 0.5;
const LJ_SCALE: f64 = 2.0;
const LJ_TRIANGLE_SCALE: f64 = 1.0;
const PROBES: usize = 16;
const CHURN_STEPS: usize = 16;
const CHURN_MUTATIONS: usize = 1000;

/// SplitMix64: the bench's own stream for choices the generators do not
/// make (probe sources, churn edits), so they depend on the seed alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

fn rows(t: Table) -> (Table, u64) {
    let n = t.n_rows() as u64;
    (t, n)
}

fn edges(g: DirectedGraph) -> (DirectedGraph, u64) {
    let n = g.edge_count() as u64;
    (g, n)
}

/// Drops a table inside the verb that made it, keeping its row count.
fn row_count(t: Table) -> ((), u64) {
    ((), t.n_rows() as u64)
}

fn edge_list(table: &Table) -> Vec<Edge> {
    let src = table.int_col("src").expect("generated edge table has src");
    let dst = table.int_col("dst").expect("generated edge table has dst");
    src.iter().copied().zip(dst.iter().copied()).collect()
}

/// PageRank through the facade, with the two facts checked about it: the
/// scores sum to 1 and the ten best ids are the same in every session.
fn pagerank(ringo: &Ringo, rec: &mut Recorder, g: &DirectedGraph) -> Vec<(NodeId, f64)> {
    let scores = rec.checked("pagerank", Layer::Algo, g.edge_count() as u64, |_| {
        let scores = ringo.pagerank(g);
        let n = scores.len() as u64;
        (scores, n)
    });
    let sum: f64 = scores.iter().map(|&(_, s)| s).sum();
    rec.observe("pagerank_sums_to_1", u64::from((sum - 1.0).abs() <= 1e-9));
    let mut best: Vec<(NodeId, f64)> = scores.clone();
    let k = best.len().min(10);
    if k > 0 {
        best.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    }
    best.truncate(k);
    best.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let digest = best.iter().fold(0u64, |h, &(id, _)| {
        h.wrapping_mul(0x100_0000_01b3).wrapping_add(id as u64)
    });
    rec.observe("pagerank_top10", digest);
    scores
}

const PAGERANK_EXPECTED: [Expected; 2] = [
    ("pagerank_sums_to_1", Want::Exactly(1)),
    ("pagerank_top10", Want::SameEverySession),
];

// ---------------------------------------------------------------- so_session

/// §4.1 verb for verb, from a TSV file on disk to the expert-score table.
struct SoSession {
    path: PathBuf,
    schema: Schema,
    posts: u64,
    file_bytes: u64,
    table_bytes: usize,
}

const SO_TAG: &str = "java";

impl SoSession {
    fn setup(ringo: &Ringo, seed: u64, shrink: u32, dir: &Path) -> Box<dyn Workload> {
        let shrink = shrink as usize;
        let posts = ringo.generate_stackoverflow(&StackOverflowConfig {
            questions: 800_000 / shrink,
            answers: 1_400_000 / shrink,
            users: 300_000 / shrink,
            seed,
            ..StackOverflowConfig::default()
        });
        let path = dir.join(format!("so_posts_{seed}.tsv"));
        ringo
            .save_table_tsv(&posts, &path)
            .expect("write posts TSV");
        // Flush now, inside set-up: otherwise the kernel writes the file
        // back while sessions run and its threads compete with them.
        let file = std::fs::File::open(&path).expect("posts TSV exists");
        file.sync_all().expect("flush posts TSV");
        let file_bytes = file.metadata().expect("posts TSV metadata").len();
        Box::new(Self {
            path,
            schema: posts_schema(),
            posts: posts.n_rows() as u64,
            file_bytes,
            table_bytes: posts.mem_size(),
        })
    }
}

impl Drop for SoSession {
    /// A run leaves no 94 MB file per seed behind.
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Workload for SoSession {
    fn items(&self) -> (u64, &'static str) {
        (self.posts, "rows")
    }

    fn input_bytes(&self) -> usize {
        self.table_bytes
    }

    fn expected(&mut self) -> Vec<Expected> {
        let c = oracle::so_counts(&self.path, SO_TAG).expect("read posts TSV back");
        let mut want = vec![
            ("load_table_tsv", Want::Exactly(c.posts)),
            ("select_tag", Want::Exactly(c.tagged)),
            ("select_questions", Want::Exactly(c.questions)),
            ("select_answers", Want::Exactly(c.answers)),
            ("join_accepted", Want::Exactly(c.joined)),
            ("to_graph", Want::Exactly(c.edges)),
            ("pagerank", Want::Exactly(c.nodes)),
        ];
        want.extend(PAGERANK_EXPECTED);
        want.push(("table_from_scores", Want::Exactly(c.nodes)));
        want
    }

    fn session(&self, ringo: &Ringo, rec: &mut Recorder) {
        let posts = rec.checked("load_table_tsv", Layer::Io, self.file_bytes, |_| {
            rows(
                ringo
                    .load_table_tsv(&self.schema, &self.path)
                    .expect("load posts"),
            )
        });
        let select = |rec: &mut Recorder, name, from: &Table, col, value| {
            rec.checked(name, Layer::Table, from.n_rows() as u64, |_| {
                rows(
                    ringo
                        .select(from, &Predicate::str_eq(col, value))
                        .expect("select"),
                )
            })
        };
        let tagged = select(rec, "select_tag", &posts, "Tag", SO_TAG);
        let questions = select(rec, "select_questions", &tagged, "Type", "question");
        let answers = select(rec, "select_answers", &tagged, "Type", "answer");
        let both = (questions.n_rows() + answers.n_rows()) as u64;
        let qa = rec.checked("join_accepted", Layer::Table, both, |_| {
            rows(
                ringo
                    .join(&questions, &answers, "AcceptedAnswerId", "PostId")
                    .expect("join"),
            )
        });
        let g = rec.checked("to_graph", Layer::Convert, qa.n_rows() as u64, |_| {
            edges(ringo.to_graph(&qa, "UserId", "UserId-1").expect("to_graph"))
        });
        let scores = pagerank(ringo, rec, &g);
        let experts = rec.checked(
            "table_from_scores",
            Layer::Convert,
            scores.len() as u64,
            |_| rows(ringo.table_from_scores(&scores, "User", "Scr")),
        );
        rec.release("drop_scores", Layer::Algo, scores);
        rec.release("drop_graph_and_experts", Layer::Convert, (g, experts));
        rec.release(
            "drop_tables",
            Layer::Table,
            (tagged, questions, answers, qa),
        );
        rec.release("drop_posts", Layer::Io, posts);
    }
}

// ------------------------------------------------------------- tw_relational

/// Table 4 on the TW-like edge table: no graph is ever built.
struct TwRelational {
    table: Table,
    /// `src >= src_cut` keeps about 10K rows.
    src_cut: i64,
    /// The median `dst`, the lazy chain's first filter.
    dst_cut: i64,
    /// The distinct `src` values at or above / below `src_cut`, so the
    /// joins produce the same 10K and all−10K rows the selects do.
    keys_tail: Table,
    keys_head: Table,
}

fn tw_table(ringo: &Ringo, seed: u64, shrink: u32) -> Table {
    ringo.generate_tw_like(TW_SCALE / f64::from(shrink), seed)
}

impl TwRelational {
    fn setup(ringo: &Ringo, seed: u64, shrink: u32, _dir: &Path) -> Box<dyn Workload> {
        let table = tw_table(ringo, seed, shrink);
        let n = table.n_rows();
        let mut src = table.int_col("src").expect("src").to_vec();
        src.sort_unstable();
        let src_cut = src[n - 10_000.min(n / 2)];
        src.dedup();
        let split = src.partition_point(|&v| v < src_cut);
        let keys_head = Table::from_int_column("key", src[..split].to_vec());
        let keys_tail = Table::from_int_column("key", src[split..].to_vec());
        let mut dst = table.int_col("dst").expect("dst").to_vec();
        let dst_cut = *dst.select_nth_unstable(n / 2).1;
        Box::new(Self {
            table,
            src_cut,
            dst_cut,
            keys_tail,
            keys_head,
        })
    }
}

impl Workload for TwRelational {
    fn items(&self) -> (u64, &'static str) {
        (self.table.n_rows() as u64, "rows")
    }

    fn input_bytes(&self) -> usize {
        self.table.mem_size() + self.keys_tail.mem_size() + self.keys_head.mem_size()
    }

    fn expected(&mut self) -> Vec<Expected> {
        let edges = edge_list(&self.table);
        let n = edges.len() as u64;
        let tail = edges.iter().filter(|e| e.0 >= self.src_cut).count() as u64;
        let mut per_src = std::collections::HashMap::new();
        for &(s, _) in &edges {
            *per_src.entry(s).or_insert(0u64) += 1;
        }
        let joined = |keys: &Table| -> u64 {
            let keys = keys.int_col("key").expect("key");
            keys.iter()
                .map(|k| per_src.get(k).copied().unwrap_or(0))
                .sum()
        };
        let chained = edges
            .iter()
            .filter(|e| e.1 < self.dst_cut && e.0 >= self.src_cut)
            .count() as u64;
        vec![
            ("select_10k", Want::Exactly(tail)),
            ("select_rest", Want::Exactly(n - tail)),
            ("join_10k", Want::Exactly(joined(&self.keys_tail))),
            ("join_rest", Want::Exactly(joined(&self.keys_head))),
            ("group_by", Want::Exactly(per_src.len() as u64)),
            ("order_by", Want::Exactly(n)),
            ("query_chain", Want::Exactly(chained)),
        ]
    }

    fn session(&self, ringo: &Ringo, rec: &mut Recorder) {
        let t = &self.table;
        let n = t.n_rows() as u64;
        for (name, cmp) in [("select_10k", Cmp::Ge), ("select_rest", Cmp::Lt)] {
            rec.checked(name, Layer::Table, n, |_| {
                row_count(
                    ringo
                        .select(t, &Predicate::int("src", cmp, self.src_cut))
                        .expect("select"),
                )
            });
        }
        for (name, keys) in [
            ("join_10k", &self.keys_tail),
            ("join_rest", &self.keys_head),
        ] {
            rec.checked(name, Layer::Table, n + keys.n_rows() as u64, |_| {
                row_count(ringo.join(t, keys, "src", "key").expect("join"))
            });
        }
        rec.checked("group_by", Layer::Table, n, |_| {
            row_count(
                ringo
                    .group_by(t, &["src"], None, AggOp::Count, "n")
                    .expect("group_by"),
            )
        });
        // The facade sorts in place and the session must keep its input,
        // so the verb is copy + sort; the order is checked after the span.
        let sorted = rec.verb("order_by", Layer::Table, n, |_| {
            let mut copy = t.clone();
            ringo
                .order_by(&mut copy, &["src", "dst"], true)
                .expect("order_by");
            rows(copy)
        });
        let (src, dst) = (sorted.int_col("src"), sorted.int_col("dst"));
        let (src, dst) = (src.expect("src"), dst.expect("dst"));
        let in_order = (1..src.len()).all(|i| (src[i - 1], dst[i - 1]) <= (src[i], dst[i]));
        rec.observe(
            "order_by",
            if in_order { sorted.n_rows() as u64 } else { 0 },
        );
        rec.release("drop_sorted", Layer::Table, sorted);
        rec.checked(
            "query_chain",
            Layer::Table,
            n + self.keys_tail.n_rows() as u64,
            |_| {
                let out = ringo
                    .query(t)
                    .select(&Predicate::int("dst", Cmp::Lt, self.dst_cut))
                    .join(&self.keys_tail, "src", "key")
                    .project(&["src", "dst"])
                    .collect()
                    .expect("query chain");
                row_count(out)
            },
        );
    }
}

// ---------------------------------------------------------------- tw_convert

/// Table 5 on the same table: every table ↔ graph conversion, nothing else.
struct TwConvert {
    table: Table,
}

impl TwConvert {
    fn setup(ringo: &Ringo, seed: u64, shrink: u32, _dir: &Path) -> Box<dyn Workload> {
        Box::new(Self {
            table: tw_table(ringo, seed, shrink),
        })
    }
}

impl Workload for TwConvert {
    fn items(&self) -> (u64, &'static str) {
        (self.table.n_rows() as u64, "rows")
    }

    fn input_bytes(&self) -> usize {
        self.table.mem_size()
    }

    fn expected(&mut self) -> Vec<Expected> {
        let edges = edge_list(&self.table);
        let distinct = oracle::distinct_edges(&edges).len() as u64;
        vec![
            ("to_graph", Want::Exactly(distinct)),
            (
                "to_undirected_graph",
                Want::Exactly(oracle::distinct_undirected(&edges).len() as u64),
            ),
            ("to_edge_table", Want::Exactly(distinct)),
            (
                "to_node_table",
                Want::Exactly(oracle::distinct_nodes(&edges)),
            ),
        ]
    }

    fn session(&self, ringo: &Ringo, rec: &mut Recorder) {
        let n = self.table.n_rows() as u64;
        let g = rec.checked("to_graph", Layer::Convert, n, |_| {
            edges(ringo.to_graph(&self.table, "src", "dst").expect("to_graph"))
        });
        rec.checked("to_undirected_graph", Layer::Convert, n, |_| {
            let u = ringo
                .to_undirected_graph(&self.table, "src", "dst")
                .expect("to_undirected_graph");
            ((), u.edge_count() as u64)
        });
        rec.checked(
            "to_edge_table",
            Layer::Convert,
            g.edge_count() as u64,
            |_| row_count(ringo.to_edge_table(&g)),
        );
        rec.checked(
            "to_node_table",
            Layer::Convert,
            g.node_count() as u64,
            |_| row_count(ringo.to_node_table(&g)),
        );
        rec.release("drop_graph", Layer::Convert, g);
    }
}

// ---------------------------------------------------------------- lj_kernels

/// The LJ-like graphs a kernel workload takes as given, plus the raw edges
/// for the oracle.
struct LjGraphs {
    directed: DirectedGraph,
    undirected: UndirectedGraph,
    edges: Vec<Edge>,
}

fn lj_graphs(ringo: &Ringo, scale: f64, seed: u64, shrink: u32) -> LjGraphs {
    let table = ringo.generate_lj_like(scale / f64::from(shrink), seed);
    LjGraphs {
        directed: ringo.to_graph(&table, "src", "dst").expect("to_graph"),
        undirected: ringo
            .to_undirected_graph(&table, "src", "dst")
            .expect("to_undirected_graph"),
        edges: edge_list(&table),
    }
}

/// Seeded probe sources among the nodes with at least four out-edges:
/// nearly all of those sit in the giant component, so a probe is a full
/// traversal and the session's length does not hinge on the seed's luck.
fn probe_sources(g: &DirectedGraph, rng: &mut SplitMix, count: usize) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = g
        .node_ids()
        .filter(|&id| g.out_degree(id) >= Some(4))
        .collect();
    pool.sort_unstable();
    (0..count).map(|_| rng.pick(&pool)).collect()
}

/// Tables 3 and 6 minus triangles: many kernels against one immutable
/// graph version, bulk sweeps first, then sixteen small probes.
struct LjKernels {
    g: DirectedGraph,
    u: UndirectedGraph,
    sssp_source: NodeId,
    probes: Vec<NodeId>,
    oracle_edges: Vec<Edge>,
}

impl LjKernels {
    fn setup(ringo: &Ringo, seed: u64, shrink: u32, _dir: &Path) -> Box<dyn Workload> {
        let LjGraphs {
            directed: g,
            undirected: u,
            edges,
        } = lj_graphs(ringo, LJ_SCALE, seed, shrink);
        let sssp_source = g
            .node_ids()
            .max_by_key(|&id| (g.out_degree(id), std::cmp::Reverse(id)))
            .expect("non-empty graph");
        let probes = probe_sources(&g, &mut SplitMix(seed ^ 0x6b65_726e), PROBES);
        Box::new(Self {
            g,
            u,
            sssp_source,
            probes,
            oracle_edges: edges,
        })
    }
}

impl Workload for LjKernels {
    fn items(&self) -> (u64, &'static str) {
        (self.g.edge_count() as u64, "edges")
    }

    fn input_bytes(&self) -> usize {
        self.g.mem_size() + self.u.mem_size()
    }

    fn expected(&mut self) -> Vec<Expected> {
        let edges = std::mem::take(&mut self.oracle_edges);
        let out = Adjacency::directed(&edges);
        let mut want = vec![("pagerank", Want::Exactly(oracle::distinct_nodes(&edges)))];
        want.extend(PAGERANK_EXPECTED);
        want.extend([
            (
                "wcc",
                Want::Exactly(Adjacency::undirected(&edges).components()),
            ),
            ("scc", Want::SameEverySession),
            (
                "sssp_unweighted",
                Want::Exactly(out.reached_from(self.sssp_source)),
            ),
            ("k_core", Want::SameEverySession),
        ]);
        want.extend(
            self.probes
                .iter()
                .map(|&src| ("bfs", Want::Exactly(out.reached_from(src)))),
        );
        want
    }

    fn session(&self, ringo: &Ringo, rec: &mut Recorder) {
        let (g, edges) = (&self.g, self.g.edge_count() as u64);
        let scores = pagerank(ringo, rec, g);
        rec.release("drop_scores", Layer::Algo, scores);
        rec.checked("wcc", Layer::Algo, edges, |_| {
            ((), ringo.wcc(g).n_components() as u64)
        });
        rec.checked("scc", Layer::Algo, edges, |_| {
            ((), ringo.scc(g).n_components() as u64)
        });
        rec.checked("sssp_unweighted", Layer::Algo, edges, |_| {
            (
                (),
                algo::sssp_unweighted(g, self.sssp_source, Direction::Out).len() as u64,
            )
        });
        rec.checked("k_core", Layer::Algo, self.u.edge_count() as u64, |_| {
            ((), ringo.k_core(&self.u, 3).node_count() as u64)
        });
        rec.verb("bfs_probes", Layer::Glue, 0, |rec| {
            for &src in &self.probes {
                rec.checked("bfs", Layer::Algo, edges, |_| {
                    ((), ringo.bfs(g, src, Direction::Out).len() as u64)
                });
            }
            ((), 0)
        });
    }
}

// -------------------------------------------------------------- lj_triangles

/// The paper's second Table 3 kernel, alone: intersection-bound, and it
/// reads adjacency without per-edge id lookups.
struct LjTriangles {
    u: UndirectedGraph,
    oracle_edges: Vec<Edge>,
}

impl LjTriangles {
    fn setup(ringo: &Ringo, seed: u64, shrink: u32, _dir: &Path) -> Box<dyn Workload> {
        let graphs = lj_graphs(ringo, LJ_TRIANGLE_SCALE, seed, shrink);
        Box::new(Self {
            u: graphs.undirected,
            oracle_edges: graphs.edges,
        })
    }
}

impl Workload for LjTriangles {
    fn items(&self) -> (u64, &'static str) {
        (self.u.edge_count() as u64, "edges")
    }

    fn input_bytes(&self) -> usize {
        self.u.mem_size()
    }

    fn expected(&mut self) -> Vec<Expected> {
        let edges = std::mem::take(&mut self.oracle_edges);
        vec![("count_triangles", Want::Exactly(oracle::triangles(&edges)))]
    }

    fn session(&self, ringo: &Ringo, rec: &mut Recorder) {
        rec.checked(
            "count_triangles",
            Layer::Algo,
            self.u.edge_count() as u64,
            |_| ((), ringo.count_triangles(&self.u)),
        );
    }
}

// ------------------------------------------------------------------ lj_churn

struct ChurnStep {
    dels: Vec<Edge>,
    adds: Vec<Edge>,
    probe: NodeId,
}

/// Writes beside reads: sixteen copy-on-write versions of the catalog's
/// graph `g`, each probed once by a reader that is the first to see it,
/// while the previous version is still pinned by the previous reader.
struct LjChurn {
    base: DirectedGraph,
    steps: Vec<ChurnStep>,
    oracle_edges: Vec<Edge>,
}

impl LjChurn {
    fn setup(ringo: &Ringo, seed: u64, shrink: u32, _dir: &Path) -> Box<dyn Workload> {
        let LjGraphs {
            directed: base,
            edges,
            ..
        } = lj_graphs(ringo, LJ_SCALE, seed, shrink);
        let mut rng = SplitMix(seed ^ 0x6368_7572);
        let probes = probe_sources(&base, &mut rng, CHURN_STEPS);
        let mut ids: Vec<NodeId> = base.node_ids().collect();
        ids.sort_unstable();
        let mutations = (CHURN_MUTATIONS / shrink as usize).max(1);
        let steps = probes
            .into_iter()
            .map(|probe| ChurnStep {
                dels: (0..mutations).map(|_| rng.pick(&edges)).collect(),
                adds: (0..mutations)
                    .map(|_| (rng.pick(&ids), rng.pick(&ids)))
                    .collect(),
                probe,
            })
            .collect();
        Box::new(Self {
            base,
            steps,
            oracle_edges: edges,
        })
    }
}

impl Workload for LjChurn {
    fn items(&self) -> (u64, &'static str) {
        (self.base.edge_count() as u64, "edges")
    }

    fn input_bytes(&self) -> usize {
        self.base.mem_size()
    }

    fn expected(&mut self) -> Vec<Expected> {
        let edges = std::mem::take(&mut self.oracle_edges);
        let steps = self.steps.iter().map(|s| (&s.dels[..], &s.adds[..]));
        let mut want = Vec::new();
        for _ in &self.steps {
            want.extend([
                ("bfs", Want::SameEverySession),
                ("catalog_gc", Want::SameEverySession),
            ]);
        }
        want.push((
            "edges_after_churn",
            Want::Exactly(oracle::edges_after_churn(&edges, steps)),
        ));
        want
    }

    fn prepare(&self, ringo: &Ringo) {
        ringo.publish_graph("g", self.base.clone());
    }

    fn session(&self, ringo: &Ringo, rec: &mut Recorder) {
        let mut reader: Option<Snapshot> = None;
        for step in &self.steps {
            rec.verb("churn_step", Layer::Glue, 0, |rec| {
                let current = rec.verb("get", Layer::Core, 1, |_| {
                    (ringo.get("g").expect("g is published"), 1)
                });
                let edges = current.cardinality();
                // The graph layer's input unit is edits, so the copy counts its
                // edges as output only.
                let mut next = rec.verb("clone", Layer::Graph, 0, |_| {
                    (
                        DirectedGraph::clone(current.as_graph().expect("g is a graph")),
                        edges,
                    )
                });
                drop(current);
                let edits = (step.dels.len() + step.adds.len()) as u64;
                rec.verb("mutate", Layer::Graph, edits, |_| {
                    let mut changed = 0;
                    for &(s, d) in &step.dels {
                        changed += u64::from(next.del_edge(s, d));
                    }
                    for &(s, d) in &step.adds {
                        changed += u64::from(next.add_edge(s, d));
                    }
                    ((), changed)
                });
                rec.verb("publish_graph", Layer::Core, 1, |_| {
                    (ringo.publish_graph("g", next), 1)
                });
                let snapshot = rec.verb("snapshot", Layer::Core, 1, |_| (ringo.snapshot(), 1));
                rec.release("drop_snapshot", Layer::Core, reader.replace(snapshot));
                let g = reader
                    .as_ref()
                    .and_then(|s| s.graph("g"))
                    .expect("g in snapshot");
                rec.checked("bfs", Layer::Algo, g.edge_count() as u64, |_| {
                    ((), ringo.bfs(g, step.probe, Direction::Out).len() as u64)
                });
                rec.checked("catalog_gc", Layer::Core, 0, |_| {
                    ((), ringo.catalog_gc() as u64)
                });
                ((), 0)
            });
        }
        let after = reader
            .as_ref()
            .and_then(|s| s.graph("g"))
            .map_or(0, |g| g.edge_count());
        rec.observe("edges_after_churn", after as u64);
        rec.release("drop_snapshot", Layer::Core, reader);
    }
}
