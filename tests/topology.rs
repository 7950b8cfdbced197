//! Slot rows as the storage: every graph keeps its adjacency as rows of
//! neighbour slots, and the kernels read those rows in place. Layout (rows
//! name live slots, ascending, each orientation mirrors the other), rows
//! after random edits against a from-scratch rebuild — vacant and reused
//! slots, copies on a first edit, `compact`, versions held across edits —
//! and bit-identity of the routed kernels on an edited graph and on its
//! rebuild.

use ringo::algo::{
    bfs_distances, pagerank, sssp_unweighted, strongly_connected_components,
    weakly_connected_components, FrontierEngine,
};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{DirectedGraph, Direction, NodeId, PageRankConfig, UndirectedGraph};
use ringo_rng::Rng64;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

mod common;
use common::{partition, wcc_oracle};

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

/// Every row names live slots, ascending; `t` is in `s`'s out-row exactly
/// when `s` is in `t`'s in-row; vacant slots have empty rows; the row
/// lengths add up to the edge count.
fn assert_rows_match<G: DirectedTopology>(g: &G) {
    let mut stored = 0u64;
    for s in 0..g.n_slots() {
        let (out, inn) = (g.out_row(s), g.in_row(s));
        if g.slot_id(s).is_none() {
            assert!(out.is_empty() && inn.is_empty(), "vacant slot {s}");
        }
        for row in [out, inn] {
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row of {s} ascends");
            assert!(
                row.iter().all(|&t| g.slot_id(t as usize).is_some()),
                "row of {s} names live slots"
            );
        }
        let slot = s as u32;
        for &t in out {
            assert!(
                g.in_row(t as usize).binary_search(&slot).is_ok(),
                "{s}->{t}"
            );
        }
        for &t in inn {
            assert!(
                g.out_row(t as usize).binary_search(&slot).is_ok(),
                "{t}->{s}"
            );
        }
        stored += out.len() as u64;
    }
    assert_eq!(g.total_degree(Direction::Out), stored);
    assert_eq!(DirectedTopology::edge_count(g) as u64, stored);
}

/// Per live slot, in slot order: its id and the ids its rows name, in
/// row order.
type Layout = Vec<(NodeId, Vec<NodeId>, Vec<NodeId>)>;

fn layout<G: DirectedTopology>(g: &G) -> Layout {
    let ids = |row: &[u32]| -> Vec<NodeId> {
        row.iter()
            .map(|&t| g.slot_id(t as usize).expect("a row names live slots"))
            .collect()
    };
    (0..g.n_slots())
        .filter_map(|s| Some((g.slot_id(s)?, ids(g.out_row(s)), ids(g.in_row(s)))))
        .collect()
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
    let mut holes = rmat_directed(10, 8_000, 5);
    punch_holes_directed(&mut holes);
    assert!(holes.n_slots() > holes.node_count(), "has vacant slots");
    let table_built = rmat_directed(11, 20_000, 3);
    // Slots follow ascending id, so every row lists its ids ascending.
    for (_, out, inn) in layout(&table_built) {
        assert!(out.is_sorted() && inn.is_sorted());
    }
    for g in [
        table_built,
        star_directed(500),
        path_directed(500),
        holes,
        DirectedGraph::new(),
    ] {
        assert!(!g.is_symmetric());
        assert_rows_match(&g);
        for (id, out, inn) in layout(&g) {
            assert_eq!(g.out_nbrs(id), out, "out of {id}");
            assert_eq!(g.in_nbrs(id), inn, "in of {id}");
        }
    }
}

#[test]
fn rows_are_slot_translated_adjacency_in_order_undirected() {
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
        assert!(g.is_symmetric(), "undirected rows are stored once");
        assert_rows_match(&g);
        for s in 0..g.n_slots() {
            assert_eq!(g.rows(s, Direction::Both), [g.out_row(s), &[]]);
            assert_eq!(g.in_row(s).as_ptr(), g.out_row(s).as_ptr());
        }
        for (id, out, _) in layout(&g) {
            assert_eq!(g.nbrs(id), out, "nbrs of {id}");
        }
    }
}

/// Seeded rounds of every mutator over a small id universe, so nodes are
/// deleted (vacant slots) and their slots reused by different ids. After
/// each round the edited rows must pass [`assert_rows_match`] and equal a
/// from-scratch rebuild of the same value, node for node. With `hold` the
/// previous round's version stays alive, so every list it shares is
/// copied on its first edit and the held version must read as it did.
macro_rules! assert_edited_equals_rebuilt {
    ($new:expr, $seed:expr, $hold:expr) => {{
        let mut rng = Rng64::new($seed);
        let mut g = $new;
        let universe = 48i64;
        for _ in 0..120 {
            g.add_edge(rng.range_i64(0..universe), rng.range_i64(0..universe));
        }
        let mut held = None;
        let (mut vacant, mut reused) = (0u32, 0u32);
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
                    _ => g = g.clone(),
                }
            }
            vacant += u32::from(g.n_slots() > g.node_count());
            assert_rows_match(&g);
            assert_eq!(
                layout(&g),
                layout(&g.induced(|_| true)),
                "round {round}: edited rows are the rebuilt rows"
            );
            if let Some((version, was)) = &held {
                assert_eq!(&layout(version), was, "round {round}: held version moved");
            }
            held = $hold.then(|| (g.clone(), layout(&g)));
        }
        assert!(
            vacant > 20 && reused > 5,
            "{vacant} rounds with holes, {reused} reuses"
        );
    }};
}

#[test]
fn patched_rows_equal_rebuilt_rows_under_random_edits_directed() {
    assert_edited_equals_rebuilt!(DirectedGraph::new(), 0xd1f, false);
    assert_edited_equals_rebuilt!(DirectedGraph::new(), 0xd1f, true);
}

#[test]
fn patched_rows_equal_rebuilt_rows_under_random_edits_undirected() {
    assert_edited_equals_rebuilt!(UndirectedGraph::new(), 0x0dd, false);
    assert_edited_equals_rebuilt!(UndirectedGraph::new(), 0x0dd, true);
}

#[test]
fn kernels_on_a_patched_view_are_bit_equal_to_those_on_a_rebuilt_one() {
    let mut g = rmat_directed(12, 50_000, 17);
    let src = g
        .node_ids()
        .max_by_key(|&id| (g.out_degree(id), id))
        .expect("non-empty");
    // Holes, slots reused by new ids, grown and shrunk rows, new slots.
    punch_holes_directed(&mut g);
    let ids: Vec<NodeId> = g.node_ids().filter(|&id| id != src).collect();
    let mut rng = Rng64::new(23);
    for k in 0..2_000 {
        let (a, b) = (ids[rng.below(ids.len())], ids[rng.below(ids.len())]);
        if k % 3 == 0 {
            g.del_edge(a, g.out_nbrs(a).next().unwrap_or(b));
        } else {
            g.add_edge(a, if k % 50 == 0 { NodeId::MAX - k } else { b });
        }
    }
    // Refill the vacant slots, so the rebuild has the same slots.
    let mut fresh = -1;
    while g.n_slots() > g.node_count() {
        assert!(g.add_node(fresh));
        fresh -= 1;
    }
    let rebuilt = g.induced(|_| true);
    assert_eq!(layout(&g), layout(&rebuilt));
    assert_eq!(g.n_slots(), rebuilt.n_slots());

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
                .iter()
                .map(|(id, score)| (id, score.to_bits()))
                .collect()
        };
        assert_eq!(bits(&g), bits(&rebuilt), "pagerank at {threads} threads");
    }
}

/// The PageRank the kernel replaced: identical arithmetic, but every
/// in-neighbour read as an id and resolved through `slot_of`,
/// sequentially, and the dangling mass summed in slot order.
fn pagerank_reference(g: &DirectedGraph, iterations: usize) -> Vec<(NodeId, f64)> {
    let damping = 0.85;
    let n_slots = g.n_slots();
    let n = g.node_count() as f64;
    let live: Vec<Option<NodeId>> = (0..n_slots).map(|s| g.slot_id(s)).collect();
    let out_deg: Vec<usize> = live
        .iter()
        .map(|id| id.and_then(|id| g.out_degree(id)).unwrap_or(0))
        .collect();
    let mut rank: Vec<f64> = live
        .iter()
        .map(|l| if l.is_some() { 1.0 / n } else { 0.0 })
        .collect();
    for _ in 0..iterations {
        let contrib: Vec<f64> = (0..n_slots)
            .map(|s| {
                if live[s].is_some() && out_deg[s] > 0 {
                    rank[s] / out_deg[s] as f64
                } else {
                    0.0
                }
            })
            .collect();
        let mut dangling = 0.0;
        for s in 0..n_slots {
            if live[s].is_some() && out_deg[s] == 0 {
                dangling += rank[s];
            }
        }
        let base = (1.0 - damping) / n + damping * dangling / n;
        rank = (0..n_slots)
            .map(|s| {
                let Some(id) = live[s] else {
                    return 0.0;
                };
                let mut acc = 0.0;
                for u in g.in_nbrs(id) {
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
    let mut g = rmat_directed(12, 50_000, 21);
    punch_holes_directed(&mut g);
    let want = pagerank_reference(&g, 10);
    for threads in [1, 2, 4] {
        let config = PageRankConfig {
            iterations: 10,
            threads,
            ..PageRankConfig::default()
        };
        let got = pagerank(&g, &config);
        assert_eq!(got.len(), want.len());
        for ((id, score), &(want_id, want_score)) in got.iter().zip(&want) {
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
fn reach(src: NodeId, nbrs: impl Fn(NodeId) -> Vec<NodeId>) -> BTreeMap<NodeId, u32> {
    let mut dist = BTreeMap::from([(src, 0u32)]);
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        for v in nbrs(u) {
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
    let mut g = rmat_directed(8, 1_500, 4);
    punch_holes_directed(&mut g);
    let src = g
        .node_ids()
        .max_by_key(|&id| (g.out_degree(id), id))
        .expect("non-empty");

    for dir in [Direction::Out, Direction::In] {
        let want = reach(src, |u| match dir {
            Direction::In => g.in_nbrs(u).collect(),
            _ => g.out_nbrs(u).collect(),
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
            let fwd = reach(v, |u| g.out_nbrs(u).collect());
            let back = reach(v, |u| g.in_nbrs(u).collect());
            fwd.keys()
                .filter(|id| back.contains_key(id))
                .copied()
                .collect()
        })
        .collect();
    assert_eq!(partition(&strongly_connected_components(&g)), want);
}
