//! The paper's memory claims, asserted: §3's "less than twice the size of
//! the graph object itself" and Table 2's graph smaller than its table.
//!
//! §3 reports that 10 PageRank iterations on Twitter2010 peaked at 1.39×
//! the graph object and triangle counting at 1.71×. Here every verb that
//! `bench_e2e` runs to build, read or export a graph is one row of
//! [`ROWS`]: its footprint — the object it reads plus the peak heap above
//! the live heap during the call, over that object — on a
//! LiveJournal-shaped table at threads 1 and 2. PageRank (kernel and facade) and triangle counting must stay
//! under the paper's 2.0; every row also stays under its own measured
//! ratio plus [`SLACK`], so a kernel that starts copying its input's rows
//! fails here even where it still clears 2.0.
//!
//! Kept in its own test binary, and the tests take `SERIAL`, so nothing
//! else moves the process-global allocation counters mid-measurement.

use ringo::algo::{count_triangles, pagerank};
use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{DirectedGraph, Direction, PageRankConfig, Ringo, Table, UndirectedGraph};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The paper's bound on a kernel's footprint over its graph (§3).
const PAPER_BOUND: f64 = 2.0;

/// Headroom over each row's measured ratio. The ratios repeat from run
/// to run, and threads 1 and 2 differ by at most 0.04 (`to_graph`); the
/// slack covers per-executor scratch on hosts with more cores and small
/// changes of layout. A copy of the graph's out-rows is at least 0.40 of
/// the graph here, four times this.
const SLACK: f64 = 0.10;

/// The LiveJournal-shaped table and the two graphs built from it.
struct Fixture {
    table: Table,
    graph: DirectedGraph,
    undirected: UndirectedGraph,
}

impl Fixture {
    fn new(ringo: &Ringo) -> Self {
        let table = ringo.generate_lj_like(0.02, 42);
        let graph = ringo.to_graph(&table, "src", "dst").unwrap();
        let undirected = ringo.to_undirected_graph(&table, "src", "dst").unwrap();
        Self {
            table,
            graph,
            undirected,
        }
    }

    /// The node BFS starts from: the one with the most out-edges.
    fn hub(&self) -> i64 {
        let g = &self.graph;
        g.node_ids()
            .max_by_key(|&id| (g.out_degree(id), std::cmp::Reverse(id)))
            .unwrap()
    }
}

/// The object a row's footprint is measured against.
#[derive(Clone, Copy, Debug)]
enum Base {
    Graph,
    Undirected,
    Table,
}

impl Base {
    fn bytes(self, f: &Fixture) -> usize {
        match self {
            Base::Graph => f.graph.mem_size(),
            Base::Undirected => f.undirected.mem_size(),
            Base::Table => f.table.mem_size(),
        }
    }
}

struct Row {
    verb: &'static str,
    base: Base,
    /// The ratio measured on this fixture, rounded up; release and debug
    /// measure alike.
    measured: f64,
    /// Whether §3's bound applies.
    paper: bool,
    run: fn(&Ringo, &Fixture),
}

const ROWS: &[Row] = &[
    Row {
        verb: "pagerank (kernel)",
        base: Base::Graph,
        measured: 1.28,
        paper: true,
        run: |ringo, f| {
            let config = PageRankConfig {
                threads: ringo.threads(),
                ..PageRankConfig::default()
            };
            drop(pagerank(&f.graph, &config));
        },
    },
    Row {
        verb: "Ringo::pagerank",
        base: Base::Graph,
        measured: 1.34,
        paper: true,
        run: |ringo, f| drop(ringo.pagerank(&f.graph)),
    },
    Row {
        verb: "count_triangles (kernel)",
        base: Base::Undirected,
        measured: 1.01,
        paper: true,
        run: |ringo, f| assert!(count_triangles(&f.undirected, ringo.threads()) > 0),
    },
    Row {
        verb: "Ringo::count_triangles",
        base: Base::Undirected,
        measured: 1.01,
        paper: true,
        run: |ringo, f| assert!(ringo.count_triangles(&f.undirected) > 0),
    },
    Row {
        verb: "Ringo::bfs",
        base: Base::Graph,
        measured: 1.15,
        paper: false,
        run: |ringo, f| drop(ringo.bfs(&f.graph, f.hub(), Direction::Out)),
    },
    Row {
        verb: "Ringo::wcc",
        base: Base::Graph,
        measured: 1.23,
        paper: false,
        run: |ringo, f| drop(ringo.wcc(&f.graph)),
    },
    Row {
        verb: "Ringo::scc",
        base: Base::Graph,
        measured: 1.43,
        paper: false,
        run: |ringo, f| drop(ringo.scc(&f.graph)),
    },
    // The result is itself a graph, most of the input's size.
    Row {
        verb: "Ringo::k_core(3)",
        base: Base::Undirected,
        measured: 2.29,
        paper: false,
        run: |ringo, f| drop(ringo.k_core(&f.undirected, 3)),
    },
    Row {
        verb: "Ringo::to_graph",
        base: Base::Table,
        measured: 1.77,
        paper: false,
        run: |ringo, f| drop(ringo.to_graph(&f.table, "src", "dst").unwrap()),
    },
    // The output is 16 B an edge against the graph's 4 B a neighbour.
    Row {
        verb: "Ringo::to_edge_table",
        base: Base::Graph,
        measured: 2.69,
        paper: false,
        run: |ringo, f| drop(ringo.to_edge_table(&f.graph)),
    },
];

/// The footprint of `row`: its base object plus the peak heap above the
/// live heap during the call, over the base object.
fn footprint(ringo: &Ringo, f: &Fixture, row: &Row) -> f64 {
    // The first call starts the worker pool and registers the verb's
    // counters, which the process keeps.
    (row.run)(ringo, f);
    let base = row.base.bytes(f);
    let live = current_bytes();
    reset_peak();
    (row.run)(ringo, f);
    let transient = peak_bytes() - live;
    (base + transient) as f64 / base as f64
}

#[test]
fn every_verb_stays_within_its_footprint_and_the_kernels_under_twice_the_graph() {
    let _serial = serial();
    for threads in [1, 2] {
        let ringo = Ringo::with_threads(threads);
        let f = Fixture::new(&ringo);
        for row in ROWS {
            let ratio = footprint(&ringo, &f, row);
            eprintln!(
                "threads {threads}: {:<26} {ratio:.3}x {:?}",
                row.verb, row.base
            );
            assert!(
                !row.paper || ratio <= PAPER_BOUND,
                "threads {threads}: {} peaked at {ratio:.3}x the {:?}, over the paper's {PAPER_BOUND}x",
                row.verb,
                row.base
            );
            assert!(
                ratio <= row.measured + SLACK,
                "threads {threads}: {} peaked at {ratio:.3}x the {:?}, measured {} + slack {SLACK}",
                row.verb,
                row.base,
                row.measured
            );
        }
    }
}

#[test]
fn a_graph_is_smaller_than_the_edge_table_it_came_from() {
    let _serial = serial();
    for threads in [1, 2] {
        let f = Fixture::new(&Ringo::with_threads(threads));
        assert_eq!(
            (f.graph.node_count(), f.graph.edge_count()),
            (1_606, 17_291)
        );
        let (graph, table) = (f.graph.mem_size(), f.table.mem_size());
        // 172,272 B against 335,684 B: 0.51 (the paper: 0.64 for
        // LiveJournal, 0.56 for Twitter2010).
        assert!(
            graph < table,
            "threads {threads}: graph {graph} B, table {table} B"
        );
    }
}
