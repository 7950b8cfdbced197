//! The slot-CSR `Topology` and its per-graph cache: layout, the cache
//! protocol (fill / share-on-clone / clear-on-mutate /
//! release-on-displace), and bit-identity of the kernels routed over it.
//!
//! Own binary, and every test takes `SERIAL`: the protocol tests read
//! process-wide counters (topology builds and hits, live heap bytes)
//! that a concurrently running sibling would move.

use ringo::algo::{
    bfs_distances, pagerank, sssp_unweighted, strongly_connected_components,
    weakly_connected_components, weakly_connected_components_parallel, Components,
};
use ringo::concurrent::parallel::chunk_bounds;
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::{DirectedTopology, Topology};
use ringo::trace::mem::{current_bytes, TrackingAllocator};
use ringo::{DirectedGraph, Direction, NodeId, PageRankConfig, Ringo, UndirectedGraph};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

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

/// The cache protocol on one graph value; a macro because the two graph
/// types share method names, not a mutation trait.
macro_rules! assert_cache_protocol {
    ($graph:expr) => {{
        let mut g = $graph;
        let first = g.topology();
        assert!(Arc::ptr_eq(&first, &g.topology()), "second call is a hit");
        assert!(g.topology_bytes() > 0);

        let ids: Vec<NodeId> = g.node_ids().collect();
        let (a, b) = (ids[0], ids[1]);
        let fresh = NodeId::MAX - 1;
        let mut prev = first;
        for step in ["add_node", "add_edge", "del_edge", "del_node", "compact"] {
            match step {
                "add_node" => assert!(g.add_node(fresh)),
                "add_edge" => assert!(g.add_edge(fresh, a)),
                "del_edge" => assert!(g.del_edge(fresh, a)),
                "del_node" => assert!(g.del_node(b)),
                _ => assert_eq!(g.compact().after.dead_slab_bytes(), 0),
            }
            assert_eq!(g.topology_bytes(), 0, "{step} clears the cell");
            let next = g.topology();
            assert!(!Arc::ptr_eq(&prev, &next), "{step}: a fresh build");
            assert_rows_match(&g, &next);
            prev = next;
        }

        // A clone shares the view until it is mutated; the original
        // keeps its own.
        let mut copy = g.clone();
        assert!(Arc::ptr_eq(&copy.topology(), &prev));
        copy.add_edge(a, fresh);
        let copied = copy.topology();
        assert!(!Arc::ptr_eq(&copied, &prev));
        assert_rows_match(&copy, &copied);
        assert!(Arc::ptr_eq(&g.topology(), &prev), "original untouched");
    }};
}

#[test]
fn cache_fills_once_clears_on_every_mutator_and_shares_on_clone() {
    let _serial = serial();
    assert_cache_protocol!(rmat_directed(9, 4_000, 11));
    assert_cache_protocol!(rmat_undirected(9, 4_000, 11));
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

    let mut successor = DirectedGraph::clone(old);
    successor.add_edge(src, NodeId::MAX - 1);
    assert_eq!(successor.topology_bytes(), 0, "mutation dropped its share");

    let live_before = current_bytes();
    ringo.publish_graph("g", successor);
    let live_after = current_bytes();
    assert_eq!(old.topology_bytes(), 0, "displaced version's cell is empty");
    // The publish itself allocates the next root map and the version's
    // `Arc`; everything beyond that slack must be the released view.
    let slack = 16 * 1024;
    assert!(
        live_before + slack >= live_after + topo_bytes,
        "live heap went {live_before} -> {live_after}; expected a drop of {topo_bytes}"
    );

    // The pinned reader rebuilds on demand and sees the same world.
    assert_eq!(bfs_fingerprint(&ringo, old, src), before_publish);
    assert!(old.topology_bytes() > 0);
    let current = ringo.snapshot();
    let new = current.graph("g").expect("successor is current");
    assert_eq!(new.edge_count(), old.edge_count() + 1);
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

fn partition(c: &Components) -> BTreeSet<BTreeSet<NodeId>> {
    let mut groups: BTreeMap<u32, BTreeSet<NodeId>> = BTreeMap::new();
    for (id, &label) in c.comp_of.iter() {
        groups.entry(label).or_default().insert(id);
    }
    groups.into_values().collect()
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
        partition(&weakly_connected_components_parallel(&g, 2)),
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
