//! Kernel results as slot-ordered columns, against independent oracles.
//!
//! Every per-node kernel — BFS distances and trees, unit-weight SSSP,
//! Dijkstra, weak and strong components, label propagation, core numbers
//! and the facade's `bfs` / `bfs_tree` — returns a `NodeValues`: ids and
//! values in ascending slot order, looked up through the graph's own id
//! index. Each is checked against an oracle that shares nothing with the
//! engine: a `VecDeque` BFS over `out_nbrs` / `in_nbrs`, the minimum-slot
//! predecessor one level up for tree parents, the union-find of
//! `tests/common` for weak components, a `BTreeMap` Kosaraju for strong
//! ones and the peeling definition for core numbers. Inputs: R-MAT, star,
//! path, disconnected, self-loops, and vacant plus reused slots after
//! `del_node`; Out / In / Both; threads 1/2/4; forced top-down and forced
//! bottom-up through `with_params`. Results must be identical — same
//! ids, same order, same values — at every thread count.

use ringo::algo::{
    bfs_distances, bfs_tree, core_numbers, label_propagation, sssp_dijkstra, sssp_unweighted,
    strongly_connected_components, weakly_connected_components, Components, FrontierEngine,
};
use ringo::gen::{edges_to_table, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{DirectedGraph, Direction, NodeId, NodeValues, Ringo, UndirectedGraph};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

mod common;
use common::{partition, wcc_oracle};

/// Every test takes this: one of them sweeps `RINGO_THREADS`, which the
/// free-function kernels read.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const DIRS: [Direction; 3] = [Direction::Out, Direction::In, Direction::Both];
const THREADS: [usize; 3] = [1, 2, 4];
/// Defaults, forced top-down, forced bottom-up.
const KNOBS: [(u64, u64); 3] = [(15, 18), (0, 0), (u64::MAX, u64::MAX)];

fn rmat_graph(scale: u32, edges: usize, seed: u64) -> DirectedGraph {
    let e = ringo::gen::rmat(&RmatConfig {
        scale,
        edges,
        seed,
        ..Default::default()
    });
    ringo::convert::table_to_graph(&edges_to_table(&e), "src", "dst").unwrap()
}

fn from_edges(edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> DirectedGraph {
    let mut g = DirectedGraph::new();
    for (s, d) in edges {
        g.add_edge(s, d);
    }
    g
}

/// The directed inputs, each with a few sources (a missing one included).
fn inputs() -> Vec<(&'static str, DirectedGraph, Vec<NodeId>)> {
    let rmat = rmat_graph(9, 5_000, 3);
    let hub = rmat
        .node_ids()
        .max_by_key(|&v| (rmat.out_degree(v), std::cmp::Reverse(v)))
        .unwrap();
    let first = rmat.node_ids().next().unwrap();

    let star = from_edges((1..=400).map(|i| (0, i)));
    let path = from_edges((0..300).map(|i| (i, i + 1)));
    let mut disconnected = from_edges((0..40).map(|i| (i, (i + 1) % 40)));
    for i in 100..140 {
        disconnected.add_edge(i, i + 1);
    }
    disconnected.add_node(999);
    let loops = from_edges([(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (4, 4), (5, 4)]);

    // Vacant slots, then some of them reused by new ids with new edges.
    let mut holes = rmat_graph(8, 2_500, 11);
    let ids: Vec<NodeId> = holes.node_ids().collect();
    for &id in ids.iter().step_by(7) {
        holes.del_node(id);
    }
    for k in 0..12 {
        let fresh = 1_000_000 + k;
        holes.add_edge(fresh, ids[1 + 2 * k as usize]);
        holes.add_edge(ids[2 + 5 * k as usize], fresh);
    }
    let holes_src = holes.node_ids().nth(3).unwrap();

    vec![
        ("rmat", rmat, vec![hub, first, -7]),
        ("star", star, vec![0, 17]),
        ("path", path, vec![0, 150, 300]),
        ("disconnected", disconnected, vec![0, 100, 999]),
        ("self-loops", loops, vec![1, 4, 5]),
        ("holes", holes, vec![holes_src, 1_000_003]),
    ]
}

/// Textbook queue BFS over ids.
fn bfs_oracle(g: &DirectedGraph, src: NodeId, dir: Direction) -> BTreeMap<NodeId, u32> {
    let mut dist = BTreeMap::new();
    if !g.has_node(src) {
        return dist;
    }
    let mut q = VecDeque::from([src]);
    dist.insert(src, 0u32);
    while let Some(u) = q.pop_front() {
        let d = dist[&u];
        let nbrs: Vec<NodeId> = match dir {
            Direction::Out => g.out_nbrs(u).collect(),
            Direction::In => g.in_nbrs(u).collect(),
            Direction::Both => g.out_nbrs(u).chain(g.in_nbrs(u)).collect(),
        };
        for v in nbrs {
            dist.entry(v).or_insert_with(|| {
                q.push_back(v);
                d + 1
            });
        }
    }
    dist
}

/// Tree parents from the oracle distances: the minimum-slot predecessor
/// one level up; the source is its own parent.
fn tree_oracle(
    g: &DirectedGraph,
    dist: &BTreeMap<NodeId, u32>,
    src: NodeId,
    dir: Direction,
) -> BTreeMap<NodeId, NodeId> {
    let slot = |u: NodeId| DirectedTopology::slot_of(g, u).unwrap();
    dist.iter()
        .map(|(&v, &d)| {
            if v == src {
                return (v, v);
            }
            let preds: Vec<NodeId> = match dir {
                Direction::Out => g.in_nbrs(v).collect(),
                Direction::In => g.out_nbrs(v).collect(),
                Direction::Both => g.in_nbrs(v).chain(g.out_nbrs(v)).collect(),
            };
            let p = preds
                .into_iter()
                .filter(|u| dist.get(u) == Some(&(d - 1)))
                .min_by_key(|&u| slot(u))
                .unwrap();
            (v, p)
        })
        .collect()
}

/// Strong components by Kosaraju over `BTreeMap` adjacency: finish order
/// on the out-edges, then sweeps of the reversed edges.
fn scc_oracle(g: &DirectedGraph) -> BTreeSet<BTreeSet<NodeId>> {
    let out: BTreeMap<NodeId, Vec<NodeId>> =
        g.node_ids().map(|v| (v, g.out_nbrs(v).collect())).collect();
    let mut rev: BTreeMap<NodeId, Vec<NodeId>> = out.keys().map(|&v| (v, Vec::new())).collect();
    for (&u, vs) in &out {
        for &v in vs {
            rev.get_mut(&v).unwrap().push(u);
        }
    }
    let mut seen = BTreeSet::new();
    let mut finish = Vec::new();
    for &root in out.keys() {
        if !seen.insert(root) {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        while let Some((v, i)) = stack.pop() {
            if let Some(&w) = out[&v].get(i) {
                stack.push((v, i + 1));
                if seen.insert(w) {
                    stack.push((w, 0));
                }
            } else {
                finish.push(v);
            }
        }
    }
    let mut done = BTreeSet::new();
    let mut comps = BTreeSet::new();
    for &root in finish.iter().rev() {
        if !done.insert(root) {
            continue;
        }
        let mut comp = BTreeSet::from([root]);
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &u in &rev[&v] {
                if done.insert(u) {
                    comp.insert(u);
                    stack.push(u);
                }
            }
        }
        comps.insert(comp);
    }
    comps
}

/// Core numbers by the definition: the largest `k` whose k-core (delete
/// nodes of degree below `k` until none is left; a self-loop counts one)
/// still holds the node.
fn core_oracle(g: &UndirectedGraph) -> BTreeMap<NodeId, u32> {
    let mut core: BTreeMap<NodeId, u32> = g.node_ids().map(|v| (v, 0)).collect();
    for k in 1.. {
        let mut adj: BTreeMap<NodeId, BTreeSet<NodeId>> =
            g.node_ids().map(|v| (v, g.nbrs(v).collect())).collect();
        while let Some(v) = adj
            .iter()
            .find(|(_, n)| n.len() < k as usize)
            .map(|(&v, _)| v)
        {
            for u in adj.remove(&v).unwrap() {
                if let Some(n) = adj.get_mut(&u) {
                    n.remove(&v);
                }
            }
        }
        if adj.is_empty() {
            break;
        }
        for v in adj.into_keys() {
            core.insert(v, k);
        }
    }
    core
}

/// The column contract: ids strictly ascending by slot, one value each,
/// `get` agreeing with the columns, and the `(id, value)` set equal to
/// the oracle's.
fn assert_columns<G: DirectedTopology, T: PartialEq + Copy + std::fmt::Debug>(
    g: &G,
    got: &NodeValues<T>,
    want: &BTreeMap<NodeId, T>,
    what: &str,
) {
    assert_eq!(
        got.ids().len(),
        got.values().len(),
        "{what}: column lengths"
    );
    let slots: Vec<usize> = got.ids().iter().map(|&id| g.slot_of(id).unwrap()).collect();
    assert!(
        slots.windows(2).all(|w| w[0] < w[1]),
        "{what}: ids not in ascending slot order"
    );
    for (id, v) in got.iter() {
        assert_eq!(got.get(id), Some(v), "{what}: get({id})");
    }
    let as_map: BTreeMap<NodeId, T> = got.iter().map(|(id, &v)| (id, v)).collect();
    assert_eq!(&as_map, want, "{what}: values");
    assert_eq!(got.len(), want.len(), "{what}: len");
    assert!(
        !got.contains(NodeId::MAX - 3),
        "{what}: a non-node has no value"
    );
}

#[test]
fn distances_and_trees_match_the_queue_bfs_in_slot_order() {
    let _s = serial();
    for (name, g, sources) in inputs() {
        for dir in DIRS {
            for &src in &sources {
                let want = bfs_oracle(&g, src, dir);
                let what = format!("{name} from {src} {dir:?}");
                let dist = bfs_distances(&g, src, dir);
                assert_columns(&g, &dist, &want, &what);
                assert_eq!(sssp_unweighted(&g, src, dir), dist, "{what}: sssp");
                let tree = bfs_tree(&g, src, dir);
                assert_columns(&g, &tree, &tree_oracle(&g, &want, src, dir), &what);
                for threads in THREADS {
                    for (alpha, beta) in KNOBS {
                        let eng = FrontierEngine::with_params(&g, dir, threads, alpha, beta);
                        let at = format!("{what} t={threads} a={alpha} b={beta}");
                        assert_eq!(eng.distances(src), dist, "{at}: distances");
                        assert_eq!(eng.tree(src), tree, "{at}: tree");
                    }
                }
            }
        }
    }
}

#[test]
fn dijkstra_on_unit_weights_is_the_bfs() {
    let _s = serial();
    for (name, g, sources) in inputs() {
        for &src in &sources {
            let want: BTreeMap<NodeId, f64> = bfs_oracle(&g, src, Direction::Out)
                .into_iter()
                .map(|(id, d)| (id, f64::from(d)))
                .collect();
            let got = sssp_dijkstra(&g, src, |_, _| 1.0);
            assert_columns(&g, &got, &want, &format!("{name} dijkstra from {src}"));
        }
    }
}

#[test]
fn components_match_union_find_and_kosaraju() {
    let _s = serial();
    for (name, g, _) in inputs() {
        for (kind, got, want) in [
            ("wcc", weakly_connected_components(&g), wcc_oracle(&g)),
            ("scc", strongly_connected_components(&g), scc_oracle(&g)),
        ] {
            let what = format!("{name} {kind}");
            assert_eq!(partition(&got), want, "{what}: partition");
            assert_labels(&g, &got, &what);
        }
    }
}

/// Every live node labelled, in slot order, sizes counting the labels.
fn assert_labels<G: DirectedTopology>(g: &G, c: &Components, what: &str) {
    let live: Vec<NodeId> = (0..g.n_slots()).filter_map(|s| g.slot_id(s)).collect();
    assert_eq!(
        c.comp_of.ids(),
        &live[..],
        "{what}: every live node, in slot order"
    );
    let mut counts = vec![0usize; c.n_components()];
    for &l in c.comp_of.values() {
        counts[l as usize] += 1;
    }
    assert_eq!(counts, c.sizes, "{what}: sizes");
    for &id in &live {
        assert_eq!(
            c.component(id),
            c.comp_of.get(id).copied(),
            "{what}: component({id})"
        );
    }
}

/// Undirected twins of the inputs, holes and reused slots made directly
/// on the undirected graph.
fn undirected_inputs() -> Vec<(&'static str, UndirectedGraph)> {
    let mut out: Vec<(&'static str, UndirectedGraph)> = inputs()
        .into_iter()
        .map(|(name, g, _)| (name, g.to_undirected()))
        .collect();
    let mut holes = rmat_graph(8, 2_000, 5).to_undirected();
    let ids: Vec<NodeId> = holes.node_ids().collect();
    for &id in ids.iter().step_by(5) {
        holes.del_node(id);
    }
    for k in 0..10usize {
        holes.add_edge(-1 - k as NodeId, ids[1 + 3 * k]);
        holes.add_edge(-1 - k as NodeId, ids[2 + 3 * k]);
    }
    out.push(("undirected holes", holes));
    out
}

#[test]
fn core_numbers_match_the_definition() {
    let _s = serial();
    for (name, u) in undirected_inputs() {
        assert_columns(
            &u,
            &core_numbers(&u),
            &core_oracle(&u),
            &format!("{name} cores"),
        );
    }
}

#[test]
fn label_propagation_labels_every_node_densely_in_slot_order() {
    let _s = serial();
    for (name, u) in undirected_inputs() {
        let c = label_propagation(&u, 20, 9);
        let what = format!("{name} lpa");
        assert_labels(&u, &c, &what);
        // Dense numbering by first appearance in slot order.
        let mut next = 0;
        for &l in c.comp_of.values() {
            assert!(l <= next, "{what}: label {l} before {next}");
            next = next.max(l + 1);
        }
        assert_eq!(
            label_propagation(&u, 20, 9).comp_of,
            c.comp_of,
            "{what}: seeded"
        );
    }
}

/// Sets `RINGO_THREADS` for the free-function kernels and restores it.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let before = std::env::var("RINGO_THREADS").ok();
    std::env::set_var("RINGO_THREADS", threads.to_string());
    let r = f();
    match before {
        Some(v) => std::env::set_var("RINGO_THREADS", v),
        None => std::env::remove_var("RINGO_THREADS"),
    }
    r
}

/// What every routed kernel answers on one graph, as plain columns.
type Answers = Vec<(Vec<NodeId>, Vec<i64>)>;

fn answers(g: &DirectedGraph, u: &UndirectedGraph, sources: &[NodeId]) -> Answers {
    fn cols<T: Copy + Into<i64>>(v: &NodeValues<T>) -> (Vec<NodeId>, Vec<i64>) {
        (
            v.ids().to_vec(),
            v.values().iter().map(|&x| x.into()).collect(),
        )
    }
    let ringo = Ringo::new();
    let mut out = Vec::new();
    for &src in sources {
        for dir in DIRS {
            out.push(cols(&bfs_distances(g, src, dir)));
            out.push(cols(&bfs_tree(g, src, dir)));
        }
        out.push(cols(&sssp_unweighted(g, src, Direction::Out)));
        out.push(cols(&ringo.bfs(g, src, Direction::Out)));
        out.push(cols(&ringo.bfs_tree(g, src, Direction::In)));
    }
    out.push(cols(&weakly_connected_components(g).comp_of));
    out.push(cols(&strongly_connected_components(g).comp_of));
    out.push(cols(&core_numbers(u)));
    out.push(cols(&label_propagation(u, 10, 3).comp_of));
    out
}

#[test]
fn every_kernel_answers_identically_at_one_two_and_four_threads() {
    let _s = serial();
    // An LJ-like graph: a giant component whose middle levels flip to
    // bottom-up once the pool has more than one worker.
    let ringo = Ringo::with_threads(2);
    let g = ringo
        .to_graph(&ringo.generate_lj_like(0.1, 11), "src", "dst")
        .unwrap();
    let u = g.to_undirected();
    let mut sources: Vec<NodeId> = g
        .node_ids()
        .filter(|&v| g.out_degree(v) >= Some(4))
        .collect();
    sources.sort_unstable();
    let sources = [sources[0], sources[sources.len() / 2]];
    let one = with_threads(1, || answers(&g, &u, &sources));
    assert!(
        one[0].0.len() > 1_000,
        "the probe reaches the giant component"
    );
    for threads in [2, 4] {
        let many = with_threads(threads, || answers(&g, &u, &sources));
        for (k, (a, b)) in one.iter().zip(&many).enumerate() {
            assert_eq!(a.0[..], b.0[..], "answer {k}: ids at {threads} threads");
            assert_eq!(a.1[..], b.1[..], "answer {k}: values at {threads} threads");
        }
    }
    // Slot order, not hash order: the id column is the graph's slot order
    // restricted to the reached nodes.
    let reached: BTreeSet<NodeId> = one[0].0.iter().copied().collect();
    let in_slot_order: Vec<NodeId> = g.node_ids().filter(|v| reached.contains(v)).collect();
    assert_eq!(one[0].0, in_slot_order);
}
