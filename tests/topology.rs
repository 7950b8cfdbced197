//! The slot-CSR `Topology` and its per-graph cache: layout, the cache
//! protocol (fill / share-on-clone / stale-on-mutate /
//! patch-on-first-read / release-on-displace), patched rows against
//! rebuilt ones, and bit-identity of the kernels routed over them.
//!
//! Own binary, and every test takes `SERIAL`: the protocol tests read
//! process-wide counters (topology builds, patches and hits, live heap
//! bytes) that a concurrently running sibling would move.

use ringo::algo::{
    bfs_distances, pagerank, sssp_unweighted, strongly_connected_components,
    weakly_connected_components, FrontierEngine,
};
use ringo::concurrent::parallel::chunk_bounds;
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::{DirectedTopology, Topology};
use ringo::trace::mem::{current_bytes, TrackingAllocator};
use ringo::{DirectedGraph, Direction, NodeId, PageRankConfig, Ringo, UndirectedGraph};
use ringo_rng::Rng64;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

mod common;
use common::{partition, wcc_oracle};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn rmat_edges(scale: u32, edges: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    rmat(&RmatConfig {
        scale,
        edges,
        seed,
        ..Default::default()
    })
}

fn rmat_directed(scale: u32, edges: usize, seed: u64) -> DirectedGraph {
    let table = edges_to_table(&rmat_edges(scale, edges, seed));
    ringo::convert::table_to_graph(&table, "src", "dst").unwrap()
}

fn rmat_undirected(scale: u32, edges: usize, seed: u64) -> UndirectedGraph {
    let table = edges_to_table(&rmat_edges(scale, edges, seed));
    ringo::convert::table_to_undirected(&table, "src", "dst").unwrap()
}

/// Every row of `topo` is the slot translation of the graph's id list
/// for that slot, element for element; vacant slots have empty rows.
fn assert_rows_match<G: DirectedTopology>(g: &G, topo: &Topology) {
    assert_eq!(topo.n_slots(), g.n_slots());
    let ids = |row: &[u32]| -> Vec<NodeId> {
        row.iter()
            .map(|&s| g.slot_id(s as usize).expect("row names a live slot"))
            .collect()
    };
    let mut stored = 0u64;
    for s in 0..g.n_slots() {
        assert_eq!(ids(topo.out_row(s)), g.out_nbrs_of_slot(s), "out-row {s}");
        assert_eq!(ids(topo.in_row(s)), g.in_nbrs_of_slot(s), "in-row {s}");
        assert_eq!(topo.out_degree(s) as usize, g.out_nbrs_of_slot(s).len());
        assert_eq!(topo.in_degree(s) as usize, g.in_nbrs_of_slot(s).len());
        if g.slot_id(s).is_none() {
            assert!(topo.out_row(s).is_empty() && topo.in_row(s).is_empty());
        }
        stored += u64::from(topo.out_degree(s));
    }
    assert_eq!(topo.total_degree(Direction::Out), stored);
    assert_eq!(topo.total_degree(Direction::In), stored);
}

fn star_directed(leaves: i64) -> DirectedGraph {
    let mut g = DirectedGraph::new();
    for i in 1..=leaves {
        g.add_edge(0, i);
    }
    g
}

fn path_directed(len: i64) -> DirectedGraph {
    let mut g = DirectedGraph::new();
    for i in 0..len {
        g.add_edge(i, i + 1);
    }
    g
}

/// Deletes every seventh node, leaving vacant slots, then adds a few
/// nodes back so some freed slots are reused out of id order.
fn punch_holes_directed(g: &mut DirectedGraph) {
    let ids: Vec<NodeId> = g.node_ids().collect();
    for id in ids.iter().step_by(7) {
        g.del_node(*id);
    }
    for (k, id) in ids.iter().step_by(21).enumerate() {
        g.add_edge(*id, ids[(k * 5 + 1) % ids.len()]);
    }
}

#[test]
fn rows_are_slot_translated_adjacency_in_order_directed() {
    let _serial = serial();
    let mut holes = rmat_directed(10, 8_000, 5);
    punch_holes_directed(&mut holes);
    assert!(holes.n_slots() > holes.node_count(), "has vacant slots");
    for g in [
        rmat_directed(11, 20_000, 3),
        star_directed(500),
        path_directed(500),
        holes,
        DirectedGraph::new(),
    ] {
        let topo = g.topology();
        assert!(!topo.is_symmetric());
        assert_rows_match(&g, &topo);
        assert_eq!(topo.mem_size(), g.topology_bytes());
    }
}

#[test]
fn rows_are_slot_translated_adjacency_in_order_undirected() {
    let _serial = serial();
    let mut star = UndirectedGraph::new();
    let mut path = UndirectedGraph::new();
    for i in 1..=300 {
        star.add_edge(0, i);
        path.add_edge(i - 1, i);
    }
    star.add_edge(0, 0);
    let mut holes = rmat_undirected(10, 8_000, 5);
    let ids: Vec<NodeId> = holes.node_ids().collect();
    for id in ids.iter().step_by(5) {
        holes.del_node(*id);
    }
    assert!(holes.n_slots() > holes.node_count(), "has vacant slots");
    for g in [rmat_undirected(11, 20_000, 3), star, path, holes] {
        let topo = g.topology();
        assert!(topo.is_symmetric(), "undirected rows are stored once");
        assert_rows_match(&g, &topo);
        for s in 0..g.n_slots() {
            assert_eq!(topo.rows(s, Direction::Both), [topo.out_row(s), &[]]);
        }
    }
}

/// Every row of `topo`, out then in, slot by slot.
fn rows_of(topo: &Topology) -> Vec<[Vec<u32>; 2]> {
    (0..topo.n_slots())
        .map(|s| [topo.out_row(s).to_vec(), topo.in_row(s).to_vec()])
        .collect()
}

/// What `topology()` did, read off the cell's always-on counters.
struct CellCounters {
    builds: u64,
    patches: u64,
    hits: u64,
}

impl CellCounters {
    fn read() -> Self {
        Self {
            builds: ringo::trace::counter("graph.topology.builds").get(),
            patches: ringo::trace::counter("graph.topology.patches").get(),
            hits: ringo::trace::counter("graph.topology.hit").get(),
        }
    }

    /// `(builds, patches, hits)` since `self` was read.
    fn since(&self) -> (u64, u64, u64) {
        let now = Self::read();
        (
            now.builds - self.builds,
            now.patches - self.patches,
            now.hits - self.hits,
        )
    }
}

/// The cache protocol on one graph value; a macro because the two graph
/// types share method names, not a mutation trait.
macro_rules! assert_cache_protocol {
    ($graph:expr) => {{
        let mut g = $graph;
        let before = CellCounters::read();
        let first = g.topology();
        assert!(Arc::ptr_eq(&first, &g.topology()), "second call is a hit");
        assert_eq!(before.since(), (1, 0, 1), "one build, then one hit");
        let bytes = g.topology_bytes();
        assert!(bytes > 0);

        let ids: Vec<NodeId> = g.node_ids().collect();
        let (a, b) = (ids[0], ids[1]);
        let (u, v) = g.edges().next().expect("has an edge");
        let fresh = NodeId::MAX - 1;

        // A mutator that changes nothing, and `compact`, which rewrites
        // storage but no list, leave the view current.
        let before = CellCounters::read();
        assert!(!g.add_node(a));
        assert!(!g.add_edge(u, v));
        assert!(!g.del_edge(a, fresh));
        assert!(!g.del_node(fresh));
        assert_eq!(g.compact().after.dead_slab_bytes(), 0);
        assert!(Arc::ptr_eq(&first, &g.topology()), "still the same view");
        assert_eq!(before.since(), (0, 0, 1), "a hit: nothing was marked");

        // A mutator that changes a list leaves the view held but stale;
        // the next read patches it. `prev` is a reader's reference, so
        // the patch must go to a copy and leave `prev` as it was.
        let mut prev = first;
        for step in ["add_node", "add_edge", "del_edge", "del_node"] {
            let prev_rows = rows_of(&prev);
            match step {
                "add_node" => assert!(g.add_node(fresh)),
                "add_edge" => assert!(g.add_edge(fresh, a)),
                "del_edge" => assert!(g.del_edge(fresh, a)),
                _ => assert!(g.del_node(b)),
            }
            assert!(g.topology_bytes() > 0, "{step} keeps the view, stale");
            let before = CellCounters::read();
            let next = g.topology();
            assert_eq!(before.since(), (0, 1, 0), "{step}: patched, not rebuilt");
            assert!(
                !Arc::ptr_eq(&prev, &next),
                "{step}: the held view is not written"
            );
            assert_eq!(
                rows_of(&prev),
                prev_rows,
                "{step}: the held view is unchanged"
            );
            assert_rows_match(&g, &next);
            prev = next;
        }

        // With no other reference the same allocation is patched in place.
        let at = Arc::as_ptr(&prev);
        drop(prev);
        assert!(g.add_edge(a, fresh));
        let patched = g.topology();
        assert_eq!(Arc::as_ptr(&patched), at, "sole owner: patched in place");
        assert_rows_match(&g, &patched);

        // A clone shares the view until it is mutated; the original
        // keeps its own.
        let mut copy = g.clone();
        assert!(Arc::ptr_eq(&copy.topology(), &patched));
        assert!(copy.add_edge(fresh, fresh));
        assert_eq!(
            copy.topology_bytes(),
            g.topology_bytes(),
            "stale, not dropped"
        );
        let copied = copy.topology();
        assert!(!Arc::ptr_eq(&copied, &patched));
        assert_rows_match(&copy, &copied);
        assert!(Arc::ptr_eq(&g.topology(), &patched), "original untouched");
        assert_rows_match(&g, &patched);
    }};
}

#[test]
fn cache_fills_once_goes_stale_on_real_mutations_and_shares_on_clone() {
    let _serial = serial();
    assert_cache_protocol!(rmat_directed(9, 4_000, 11));
    assert_cache_protocol!(rmat_undirected(9, 4_000, 11));
}

/// Seeded rounds of every mutator over a small id universe, so nodes are
/// deleted (vacant slots) and their slots reused by different ids. After
/// each round the patched view must equal both the graph's adjacency and
/// a from-scratch build of the same value. With `hold` the previous
/// round's view stays alive, which forces every patch onto a copy;
/// without it the cell is the sole owner and patches in place.
macro_rules! assert_patched_equals_rebuilt {
    ($new:expr, $seed:expr, $hold:expr) => {{
        let mut rng = Rng64::new($seed);
        let mut g = $new;
        let universe = 48i64;
        for _ in 0..120 {
            g.add_edge(rng.range_i64(0..universe), rng.range_i64(0..universe));
        }
        let first = g.topology();
        let mut at = Arc::as_ptr(&first);
        let mut held = $hold.then_some(first);
        let (mut in_place, mut copied, mut vacant, mut reused) = (0u32, 0u32, 0u32, 0u32);
        for round in 0..240 {
            for _ in 0..rng.range_usize(1..9) {
                let (a, b) = (rng.range_i64(0..universe), rng.range_i64(0..universe));
                match rng.below(16) {
                    0..=5 => drop(g.add_edge(a, b)),
                    6..=9 => drop(g.del_edge(a, b)),
                    10..=11 => drop(g.del_node(a)),
                    12 => drop(g.add_node(a)),
                    // A slot a deletion freed goes to an id outside the
                    // universe: reuse by a different id, every time.
                    13 => {
                        let slots = g.n_slots();
                        let added = g.add_node(universe + round);
                        reused += u32::from(added && g.n_slots() == slots);
                    }
                    14 => drop(g.compact()),
                    // A clone of a stale graph takes its dirty slots along.
                    _ => g = g.clone(),
                }
            }
            vacant += u32::from(g.n_slots() > g.node_count());
            let before = CellCounters::read();
            let topo = g.topology();
            let (builds, patches, _) = before.since();
            assert_eq!(builds, 0, "round {round}: never rebuilt");
            if patches == 1 {
                let same = Arc::as_ptr(&topo) == at;
                assert_eq!(same, !$hold, "round {round}: in place iff sole owner");
                in_place += u32::from(same);
                copied += u32::from(!same);
            }
            assert_rows_match(&g, &topo);
            let twin = g.clone();
            twin.release_topology();
            assert_eq!(
                rows_of(&topo),
                rows_of(&twin.topology()),
                "round {round}: patched rows are the rebuilt rows"
            );
            at = Arc::as_ptr(&topo);
            held = $hold.then_some(topo);
        }
        drop(held);
        assert!(
            vacant > 20 && reused > 5,
            "{vacant} rounds with holes, {reused} reuses"
        );
        assert!(in_place + copied > 200, "nearly every round patched");
        (in_place, copied)
    }};
}

#[test]
fn patched_rows_equal_rebuilt_rows_under_random_edits_directed() {
    let _serial = serial();
    let (in_place, copied) = assert_patched_equals_rebuilt!(DirectedGraph::new(), 0xd1f, false);
    assert!(in_place > 200 && copied == 0);
    let (in_place, copied) = assert_patched_equals_rebuilt!(DirectedGraph::new(), 0xd1f, true);
    assert!(copied > 200 && in_place == 0);
}

#[test]
fn patched_rows_equal_rebuilt_rows_under_random_edits_undirected() {
    let _serial = serial();
    let (in_place, copied) = assert_patched_equals_rebuilt!(UndirectedGraph::new(), 0x0dd, false);
    assert!(in_place > 200 && copied == 0);
    let (in_place, copied) = assert_patched_equals_rebuilt!(UndirectedGraph::new(), 0x0dd, true);
    assert!(copied > 200 && in_place == 0);
}

#[test]
fn kernels_on_a_patched_view_are_bit_equal_to_those_on_a_rebuilt_one() {
    let _serial = serial();
    let mut g = rmat_directed(12, 50_000, 17);
    let src = g
        .node_ids()
        .max_by_key(|&id| (g.out_degree(id), id))
        .expect("non-empty");
    g.topology();
    // Holes, slots reused by new ids, grown and shrunk rows, new slots.
    punch_holes_directed(&mut g);
    let ids: Vec<NodeId> = g.node_ids().filter(|&id| id != src).collect();
    let mut rng = Rng64::new(23);
    for k in 0..2_000 {
        let (a, b) = (ids[rng.below(ids.len())], ids[rng.below(ids.len())]);
        if k % 3 == 0 {
            g.del_edge(a, g.out_nbrs(a).first().copied().unwrap_or(b));
        } else {
            g.add_edge(a, if k % 50 == 0 { NodeId::MAX - k } else { b });
        }
    }
    let before = CellCounters::read();
    let patched = g.topology();
    assert_eq!(before.since(), (0, 1, 0), "one patch covers every edit");
    let rebuilt = g.clone();
    rebuilt.release_topology();
    assert!(!Arc::ptr_eq(&patched, &rebuilt.topology()));

    for threads in [1, 2, 4] {
        for dir in [Direction::Out, Direction::In, Direction::Both] {
            let run = |g: &DirectedGraph| {
                let eng = FrontierEngine::with_threads(g, dir, threads);
                (eng.run(src).expect("src is live").dist, eng.tree(src))
            };
            assert_eq!(run(&g), run(&rebuilt), "bfs {dir:?} at {threads} threads");
        }
        let config = PageRankConfig {
            iterations: 10,
            threads,
            ..PageRankConfig::default()
        };
        let bits = |g: &DirectedGraph| -> Vec<(NodeId, u64)> {
            pagerank(g, &config)
                .into_iter()
                .map(|(id, score)| (id, score.to_bits()))
                .collect()
        };
        assert_eq!(bits(&g), bits(&rebuilt), "pagerank at {threads} threads");
    }
}

#[test]
fn a_patch_that_panics_leaves_the_cell_empty_and_the_next_read_correct() {
    let _serial = serial();
    // Parts that lie: 1's out-list names 9, 9's in-list does not name 1.
    // Every id has a slot, so the build succeeds.
    let mut g = DirectedGraph::from_parts(vec![
        (1, vec![], vec![2, 9]),
        (2, vec![1], vec![]),
        (9, vec![], vec![]),
    ]);
    let built = g.topology();
    assert_eq!(built.out_degree(0), 2);
    drop(built);
    // Deleting 9 cannot find the edge 1 -> 9 from 9's side, so 1 keeps
    // naming it; the next edit to 1 makes the patch re-translate that list.
    assert!(g.del_node(9));
    assert!(g.add_edge(1, 3));
    assert!(g.topology_bytes() > 0, "stale view held");
    let panicked = catch_unwind(AssertUnwindSafe(|| g.topology()));
    assert!(panicked.is_err(), "node 9 has no slot");
    assert_eq!(g.topology_bytes(), 0, "the half-patched view is gone");

    // Repaired, the graph gets a from-scratch build.
    assert!(g.add_node(9));
    let before = CellCounters::read();
    let topo = g.topology();
    assert_eq!(before.since(), (1, 0, 0));
    assert_eq!(topo.n_slots(), g.n_slots());
    // Out-rows only: the parts still lie about 9's in-list, so the two
    // orientations of this graph do not add up as `assert_rows_match` asks.
    for s in 0..g.n_slots() {
        let ids: Vec<NodeId> = topo
            .out_row(s)
            .iter()
            .map(|&t| g.slot_id(t as usize).expect("live"))
            .collect();
        assert_eq!(ids, g.out_nbrs_of_slot(s), "out-row {s}");
    }
}

#[test]
fn racing_readers_share_one_build() {
    let _serial = serial();
    let g = rmat_directed(12, 60_000, 2);
    let builds = ringo::trace::registry::histogram("graph.topology.build");
    let hits = ringo::trace::counter("graph.topology.hit");
    ringo::trace::set_enabled(true);
    let (builds_before, hits_before) = (builds.count(), hits.get());
    let barrier = Barrier::new(8);
    let views: Vec<Arc<Topology>> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    g.topology()
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().expect("racer finished"))
            .collect()
    });
    ringo::trace::set_enabled(false);
    assert!(views.iter().all(|v| Arc::ptr_eq(v, &views[0])));
    assert_eq!(builds.count() - builds_before, 1, "exactly one build");
    assert_eq!(hits.get() - hits_before, 7, "everyone else hit the cell");
    assert_rows_match(&g, &views[0]);
}

/// BFS distances from `src` as a sorted digest: deterministic per graph
/// version.
fn bfs_fingerprint(ringo: &Ringo, g: &DirectedGraph, src: NodeId) -> Vec<(NodeId, u32)> {
    let mut pairs: Vec<(NodeId, u32)> = ringo
        .bfs(g, src, Direction::Out)
        .iter()
        .map(|(id, &d)| (id, d))
        .collect();
    pairs.sort_unstable();
    pairs
}

#[test]
fn publish_releases_the_displaced_versions_topology() {
    let _serial = serial();
    let ringo = Ringo::new();
    ringo.publish_graph("g", rmat_directed(12, 60_000, 8));
    let pinned = ringo.snapshot();
    let old = pinned.graph("g").expect("g is published");
    let src = old.node_ids().next().expect("non-empty");
    let before_publish = bfs_fingerprint(&ringo, old, src);
    let topo_bytes = old.topology_bytes();
    assert!(topo_bytes > 100_000, "the probe filled the cell");
    let parent_view = old.topology();
    let parent_rows = rows_of(&parent_view);

    let mut successor = DirectedGraph::clone(old);
    successor.add_edge(src, NodeId::MAX - 1);
    assert_eq!(
        successor.topology_bytes(),
        topo_bytes,
        "stale, but still shared"
    );
    assert_eq!(rows_of(&parent_view), parent_rows, "marking writes no row");
    drop(parent_view);

    // Release on displace hands the view over: the old version's cell
    // lets go, the successor's keeps the same allocation, nothing is
    // freed or copied.
    let live_before = current_bytes();
    ringo.publish_graph("g", successor);
    let live_after = current_bytes();
    assert_eq!(old.topology_bytes(), 0, "displaced version's cell is empty");
    let slack = 16 * 1024;
    assert!(
        live_before.abs_diff(live_after) < slack,
        "live heap went {live_before} -> {live_after} across the publish"
    );

    // The successor's first reader patches that allocation in place.
    let current = ringo.snapshot();
    let new = current.graph("g").expect("successor is current");
    assert_eq!(new.edge_count(), old.edge_count() + 1);
    let before = CellCounters::read();
    assert_rows_match(&**new, &new.topology());
    assert_eq!(before.since(), (0, 1, 0), "patched, not rebuilt");
    assert!(
        current_bytes() < live_after + slack,
        "the patch grew the view by one edge, not by a copy"
    );

    // The pinned reader rebuilds on demand and sees the same world.
    assert_eq!(bfs_fingerprint(&ringo, old, src), before_publish);
    assert_eq!(rows_of(&old.topology()), parent_rows);
}

/// The PageRank the kernel replaced: identical arithmetic, but every
/// in-neighbor id resolved through `slot_of`, sequentially. `threads`
/// only fixes how the dangling mass is chunked, as in the kernel.
fn pagerank_reference(g: &DirectedGraph, iterations: usize, threads: usize) -> Vec<(NodeId, f64)> {
    let damping = 0.85;
    let n_slots = g.n_slots();
    let n = g.node_count() as f64;
    let live: Vec<bool> = (0..n_slots).map(|s| g.slot_id(s).is_some()).collect();
    let out_deg: Vec<usize> = (0..n_slots).map(|s| g.out_nbrs_of_slot(s).len()).collect();
    let mut rank: Vec<f64> = live
        .iter()
        .map(|&l| if l { 1.0 / n } else { 0.0 })
        .collect();
    let bounds = chunk_bounds(n_slots, threads);
    for _ in 0..iterations {
        let contrib: Vec<f64> = (0..n_slots)
            .map(|s| {
                if live[s] && out_deg[s] > 0 {
                    rank[s] / out_deg[s] as f64
                } else {
                    0.0
                }
            })
            .collect();
        let dangling = bounds.windows(2).fold(0.0, |acc, w| {
            let mut part = 0.0;
            for s in w[0]..w[1] {
                if live[s] && out_deg[s] == 0 {
                    part += rank[s];
                }
            }
            acc + part
        });
        let base = (1.0 - damping) / n + damping * dangling / n;
        rank = (0..n_slots)
            .map(|s| {
                if !live[s] {
                    return 0.0;
                }
                let mut acc = 0.0;
                for &u in g.in_nbrs_of_slot(s) {
                    acc += contrib[g.slot_of(u).expect("neighbor exists")];
                }
                base + damping * acc
            })
            .collect();
    }
    (0..n_slots)
        .filter_map(|s| g.slot_id(s).map(|id| (id, rank[s])))
        .collect()
}

#[test]
fn pagerank_over_rows_is_bit_equal_to_the_slot_of_reference() {
    let _serial = serial();
    let mut g = rmat_directed(12, 50_000, 21);
    punch_holes_directed(&mut g);
    for threads in [1, 2, 4] {
        let config = PageRankConfig {
            iterations: 10,
            threads,
            ..PageRankConfig::default()
        };
        let got = pagerank(&g, &config);
        let want = pagerank_reference(&g, 10, threads);
        assert_eq!(got.len(), want.len());
        for ((id, score), (want_id, want_score)) in got.iter().zip(&want) {
            assert_eq!(id, want_id);
            assert_eq!(
                score.to_bits(),
                want_score.to_bits(),
                "node {id} at {threads} threads: {score} vs {want_score}"
            );
        }
    }
}

/// Queue BFS over ids, following `nbrs`.
fn reach<'g>(src: NodeId, nbrs: impl Fn(NodeId) -> &'g [NodeId]) -> BTreeMap<NodeId, u32> {
    let mut dist = BTreeMap::from([(src, 0u32)]);
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        for &v in nbrs(u) {
            dist.entry(v).or_insert_with(|| {
                queue.push_back(v);
                d + 1
            });
        }
    }
    dist
}

#[test]
fn routed_kernels_match_their_oracles_on_a_graph_with_vacant_slots() {
    let _serial = serial();
    let mut g = rmat_directed(8, 1_500, 4);
    punch_holes_directed(&mut g);
    let src = g
        .node_ids()
        .max_by_key(|&id| (g.out_degree(id), id))
        .expect("non-empty");

    for dir in [Direction::Out, Direction::In] {
        let want = reach(src, |u| match dir {
            Direction::In => g.in_nbrs(u),
            _ => g.out_nbrs(u),
        });
        let got: BTreeMap<NodeId, u32> = bfs_distances(&g, src, dir)
            .iter()
            .map(|(id, &d)| (id, d))
            .collect();
        assert_eq!(got, want, "bfs {dir:?}");
        let sssp: BTreeMap<NodeId, u32> = sssp_unweighted(&g, src, dir)
            .iter()
            .map(|(id, &d)| (id, d))
            .collect();
        assert_eq!(sssp, want, "sssp {dir:?}");
    }

    assert_eq!(
        partition(&weakly_connected_components(&g)),
        wcc_oracle(&g),
        "wcc equals union-find"
    );

    // SCC oracle: v's component is what it reaches and is reached by.
    let want: BTreeSet<BTreeSet<NodeId>> = g
        .node_ids()
        .map(|v| {
            let fwd = reach(v, |u| g.out_nbrs(u));
            let back = reach(v, |u| g.in_nbrs(u));
            fwd.keys()
                .filter(|id| back.contains_key(id))
                .copied()
                .collect()
        })
        .collect();
    assert_eq!(partition(&strongly_connected_components(&g)), want);
}
