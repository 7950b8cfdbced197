//! A graph version costs what it changed: bulk rows are offsets into a
//! slab every version shares, an edited row lives in the version's
//! overlay, and the ids, vacancies and free slots are shared until a
//! version adds or deletes a node. Two differential suites against
//! independent models:
//!
//! * seeded clone → edit → publish chains through the catalog — edges
//!   added and deleted, nodes added, deleted and their slots reused,
//!   `compact`, `reversed` — against a `BTreeMap` model, every retained
//!   version checked again after each of its successors' edits;
//! * every digraph on at most three nodes, self-loops included (512 on
//!   three), built in bulk, by edits, and in bulk then edited around a
//!   vacant slot: its rows, BFS, WCC, SCC, core numbers and triangles
//!   against naive references at threads 1, 2 and 4;
//! * the id index on ids spread over `i64` — `i64::MIN`, `i64::MAX`, two
//!   clusters 2^50 apart, parts in shuffled order, the empty and the
//!   one-node graph — through chains of node and edge edits, slot reuse,
//!   clones, `induced` and `k_core`: every version's `has_node`,
//!   `slot_of`, `out_nbrs` and BFS `NodeValues::get` against a `BTreeMap`
//!   model, for every held id and for absent ids below, above and between
//!   them, at threads 1 and 2.

use ringo::algo::{
    bfs_distances, core_numbers, count_triangles, strongly_connected_components,
    weakly_connected_components, Components, FrontierEngine,
};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::{new_slab, DirectedTopology};
use ringo::{DirectedGraph, Direction, NodeId, Ringo, UndirectedGraph};
use ringo_rng::Rng64;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Held by every test: the kernels' thread count is `RINGO_THREADS`,
/// which a test sets.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
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

/// The model of a directed graph: per node, its out- and in-neighbours.
#[derive(Clone, Debug, Default, PartialEq)]
struct Model(BTreeMap<NodeId, [BTreeSet<NodeId>; 2]>);

impl Model {
    fn of(nodes: &[NodeId], edges: &[(NodeId, NodeId)]) -> Self {
        let mut m = Self::default();
        for &id in nodes {
            m.add_node(id);
        }
        for &(s, d) in edges {
            m.add_edge(s, d);
        }
        m
    }

    fn add_node(&mut self, id: NodeId) -> bool {
        let new = !self.0.contains_key(&id);
        self.0.entry(id).or_default();
        new
    }

    fn add_edge(&mut self, s: NodeId, d: NodeId) -> bool {
        self.0.entry(s).or_default();
        self.0.entry(d).or_default();
        self.0.get_mut(&d).unwrap()[1].insert(s);
        self.0.get_mut(&s).unwrap()[0].insert(d)
    }

    fn del_edge(&mut self, s: NodeId, d: NodeId) -> bool {
        let gone = self.0.get_mut(&s).is_some_and(|l| l[0].remove(&d));
        if gone {
            self.0.get_mut(&d).unwrap()[1].remove(&s);
        }
        gone
    }

    fn del_node(&mut self, id: NodeId) -> bool {
        let Some([out, inn]) = self.0.remove(&id) else {
            return false;
        };
        for d in out.into_iter().filter(|&d| d != id) {
            self.0.get_mut(&d).unwrap()[1].remove(&id);
        }
        for s in inn.into_iter().filter(|&s| s != id) {
            self.0.get_mut(&s).unwrap()[0].remove(&id);
        }
        true
    }

    fn reversed(&self) -> Self {
        let flip =
            |(&id, [out, inn]): (&NodeId, &[BTreeSet<NodeId>; 2])| (id, [inn.clone(), out.clone()]);
        Self(self.0.iter().map(flip).collect())
    }

    fn edges(&self) -> usize {
        self.0.values().map(|l| l[0].len()).sum()
    }

    /// Every edge in both directions, self-loops once: the undirected
    /// graph's neighbour sets.
    fn symmetric(&self) -> BTreeMap<NodeId, BTreeSet<NodeId>> {
        let both = |(&id, [out, inn]): (&NodeId, &[BTreeSet<NodeId>; 2])| {
            (id, out.union(inn).copied().collect())
        };
        self.0.iter().map(both).collect()
    }
}

/// The ids a row of `g` names, checking it is ascending and names live
/// slots only.
fn row_ids<G: DirectedTopology>(g: &G, row: &[u32], what: &str) -> BTreeSet<NodeId> {
    assert!(row.is_sorted_by(|a, b| a < b), "{what}: row not ascending");
    let id = |&v: &u32| g.slot_id(v as usize).expect("a row names live slots");
    row.iter().map(id).collect()
}

/// `g` holds exactly `want`: the same nodes, found through the index, the
/// same rows, empty rows at vacant slots, and the same counts.
fn assert_holds(g: &DirectedGraph, want: &Model, what: &str) {
    let mut got = Model::default();
    for s in 0..g.n_slots() {
        let Some(id) = g.slot_id(s) else {
            let rows = [g.out_row(s), g.in_row(s)];
            assert!(
                rows.iter().all(|r| r.is_empty()),
                "{what}: rows at vacant slot {s}"
            );
            continue;
        };
        assert_eq!(g.slot_of(id), Some(s), "{what}: index of {id}");
        let rows = [g.out_row(s), g.in_row(s)].map(|row| row_ids(g, row, what));
        got.0.insert(id, rows);
    }
    assert_eq!(&got, want, "{what}: rows");
    assert_eq!(g.node_count(), want.0.len(), "{what}: node count");
    assert_eq!(g.edge_count(), want.edges(), "{what}: edge count");
    assert!(want.0.keys().all(|&id| g.has_node(id)), "{what}: has_node");
    let stats = g.adjacency_stats();
    assert_eq!(
        stats.slab_lists + stats.owned_lists,
        2 * want.0.len(),
        "{what}"
    );
}

fn current(ringo: &Ringo) -> Arc<DirectedGraph> {
    ringo
        .get("g")
        .and_then(|d| d.as_graph().cloned())
        .expect("g is published")
}

/// A chain of `steps` published versions from `base`, which holds
/// `model`: each a clone of the current version, edited, sometimes
/// compacted or reversed, published, and sometimes compacted again by the
/// catalog. Every version stays pinned, and after each step every one is
/// checked against the model recorded when it was made. Returns how often
/// an added node took a freed slot.
fn chain(base: DirectedGraph, mut model: Model, seed: u64, steps: usize) -> u32 {
    let ringo = Ringo::with_threads(2);
    let mut rng = Rng64::new(seed);
    let universe = 2 * model.0.len().max(8) as NodeId;
    let pick = |rng: &mut Rng64| match rng.below(16) {
        0 => i64::MIN + rng.range_i64(0..3),
        1 => -rng.range_i64(1..universe),
        _ => rng.range_i64(0..universe),
    };
    let mut reused = 0;
    ringo.publish_graph("g", base);
    let mut kept = vec![(current(&ringo), model.clone())];
    for step in 1..steps {
        let mut g = DirectedGraph::clone(&current(&ringo));
        for _ in 0..rng.range_usize(10..60) {
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            match rng.below(16) {
                0..=6 => assert_eq!(g.add_edge(a, b), model.add_edge(a, b)),
                7..=11 => {
                    // Mostly an edge the version holds.
                    let k = rng.below(model.0.len().max(1));
                    let (a, b) = match model.0.iter().nth(k) {
                        Some((&s, [out, _])) if !out.is_empty() && rng.below(4) > 0 => {
                            (s, *out.iter().nth(rng.below(out.len())).unwrap())
                        }
                        _ => (a, b),
                    };
                    assert_eq!(g.del_edge(a, b), model.del_edge(a, b));
                }
                12 | 13 => assert_eq!(g.del_node(a), model.del_node(a)),
                _ => {
                    let slots = g.n_slots();
                    let added = g.add_node(a);
                    assert_eq!(added, model.add_node(a));
                    reused += u32::from(added && g.n_slots() == slots);
                }
            }
        }
        match rng.below(6) {
            0 => {
                g.compact();
            }
            1 => {
                g = g.reversed();
                model = model.reversed();
            }
            _ => {}
        }
        ringo.publish_graph("g", g);
        kept.push((current(&ringo), model.clone()));
        if rng.below(5) == 0 {
            ringo.compact_graph("g").expect("g is a graph");
            kept.push((current(&ringo), model.clone()));
        }
        for (v, (g, want)) in kept.iter().enumerate() {
            assert_holds(g, want, &format!("seed {seed} step {step}: v{v}"));
        }
    }
    reused
}

#[test]
fn published_versions_keep_what_they_held() {
    let _s = serial();
    let mut reused = 0;
    for seed in [1, 2, 3] {
        let edges = rmat(&RmatConfig {
            scale: 7,
            edges: 600,
            seed,
            ..Default::default()
        });
        // Bulk rows from a conversion, and from an empty graph rows that
        // are all lists of their own.
        let t = edges_to_table(&edges);
        let converted = ringo::convert::table_to_graph(&t, "src", "dst").unwrap();
        reused += chain(converted, Model::of(&[], &edges), seed, 12);
        reused += chain(DirectedGraph::new(), Model::default(), seed + 10, 12);
    }
    assert!(reused > 10, "freed slots reused {reused} times");
}

#[test]
fn a_version_reversed_twice_is_the_version() {
    let _s = serial();
    let edges = rmat(&RmatConfig {
        scale: 6,
        edges: 200,
        seed: 9,
        ..Default::default()
    });
    let t = edges_to_table(&edges);
    let mut g = ringo::convert::table_to_graph(&t, "src", "dst").unwrap();
    let mut model = Model::of(&[], &edges);
    let (s, d) = edges[0];
    assert!(g.del_edge(s, d) && model.del_edge(s, d));
    let r = g.reversed();
    assert_holds(&r, &model.reversed(), "reversed");
    assert_holds(&r.reversed(), &model, "reversed twice");
    assert_holds(&g, &model, "the original");
}

/// The tiny graphs' node ids: far apart, of both signs, `i64::MIN` among
/// them.
const IDS: [NodeId; 3] = [7, i64::MIN, -2];

/// An id no tiny graph holds, for the vacant slot.
const GONE: NodeId = 1 << 40;

/// A graph built in bulk on `ids` (node `k` in slot `k`) with the `arcs`
/// between slots.
fn bulk(ids: &[NodeId], arcs: &BTreeSet<(usize, usize)>) -> DirectedGraph {
    let n = ids.len();
    let slab = |arcs: &mut dyn Iterator<Item = (usize, usize)>| {
        let mut rows = vec![Vec::new(); n];
        for (s, d) in arcs {
            rows[s].push(d as u32);
        }
        let mut off = vec![0];
        let mut slab = new_slab(rows.iter().map(Vec::len).sum());
        let buf = Arc::get_mut(&mut slab).unwrap();
        for mut row in rows {
            row.sort_unstable();
            let at = off[off.len() - 1];
            buf[at..at + row.len()].copy_from_slice(&row);
            off.push(at + row.len());
        }
        (off, slab)
    };
    let (out_off, out_slab) = slab(&mut arcs.iter().copied());
    let (in_off, in_slab) = slab(&mut arcs.iter().map(|&(s, d)| (d, s)));
    DirectedGraph::from_sorted_parts(ids.to_vec(), &in_off, in_slab, &out_off, out_slab)
}

/// The undirected graph built in bulk on `ids` with the `arcs` between
/// slots, each in both rows.
fn bulk_undirected(ids: &[NodeId], arcs: &BTreeSet<(usize, usize)>) -> UndirectedGraph {
    let both: BTreeSet<(usize, usize)> = arcs.iter().flat_map(|&(s, d)| [(s, d), (d, s)]).collect();
    bulk(ids, &both).to_undirected()
}

/// The digraph `mask` names on the first `n` ids (bit `n·i + j`: the
/// edge from node `i` to node `j`) built three ways: in bulk, by edits
/// (nodes added last id first), and in bulk with a different edge set
/// and the node `GONE` in slot 0, then deleted and edited to `mask`.
fn three_ways(n: usize, mask: u32) -> [(&'static str, DirectedGraph, UndirectedGraph); 3] {
    let arcs: BTreeSet<(usize, usize)> = (0..n * n)
        .filter(|&b| mask >> b & 1 == 1)
        .map(|b| (b / n, b % n))
        .collect();
    let ids = &IDS[..n];
    let mut edited = DirectedGraph::new();
    let mut edited_u = UndirectedGraph::new();
    for &id in ids.iter().rev() {
        edited.add_node(id);
        edited_u.add_node(id);
    }
    for &(s, d) in &arcs {
        edited.add_edge(ids[s], ids[d]);
        edited_u.add_edge(ids[s], ids[d]);
    }
    // Slot 0 is `GONE`, joined to every node; the tiny graph's own arcs
    // start as `mask`'s complement.
    let with_gone: Vec<NodeId> = std::iter::once(GONE).chain(ids.iter().copied()).collect();
    let other: BTreeSet<(usize, usize)> = (0..n * n)
        .filter(|&b| mask >> b & 1 == 0)
        .map(|b| (b / n + 1, b % n + 1))
        .chain((1..=n).flat_map(|k| [(0, k), (k, 0)]))
        .collect();
    let mut holed = bulk(&with_gone, &other);
    let mut holed_u = bulk_undirected(&with_gone, &other);
    assert!(holed.del_node(GONE) && holed_u.del_node(GONE));
    for s in 0..n {
        for d in 0..n {
            let (a, b) = (ids[s], ids[d]);
            if arcs.contains(&(s, d)) {
                holed.add_edge(a, b);
                holed_u.add_edge(a, b);
            } else {
                holed.del_edge(a, b);
                if !arcs.contains(&(d, s)) {
                    holed_u.del_edge(a, b);
                }
            }
        }
    }
    [
        ("bulk", bulk(ids, &arcs), bulk_undirected(ids, &arcs)),
        ("edited", edited, edited_u),
        ("holed", holed, holed_u),
    ]
}

/// Hop distances from `src` along `dir` in the model.
fn naive_bfs(m: &Model, src: NodeId, dir: Direction) -> BTreeMap<NodeId, u32> {
    let mut dist = BTreeMap::from([(src, 0)]);
    let mut frontier = vec![src];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for v in frontier {
            let [out, inn] = &m.0[&v];
            let nbrs: Vec<NodeId> = match dir {
                Direction::Out => out.iter().copied().collect(),
                Direction::In => inn.iter().copied().collect(),
                Direction::Both => out.union(inn).copied().collect(),
            };
            for u in nbrs {
                if !dist.contains_key(&u) {
                    dist.insert(u, dist[&v] + 1);
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// The partition a labelling induces: the set of each node's class.
fn classes(labels: impl Iterator<Item = (NodeId, u32)>) -> BTreeSet<BTreeSet<NodeId>> {
    let mut by: BTreeMap<u32, BTreeSet<NodeId>> = BTreeMap::new();
    for (id, c) in labels {
        by.entry(c).or_default().insert(id);
    }
    by.into_values().collect()
}

/// The components of `c` as a partition, checking the sizes agree.
fn partition(c: &Components) -> BTreeSet<BTreeSet<NodeId>> {
    let p = classes(c.comp_of.iter().map(|(id, &c)| (id, c)));
    let mut sizes: Vec<usize> = p.iter().map(BTreeSet::len).collect();
    let mut want = c.sizes.clone();
    sizes.sort_unstable();
    want.sort_unstable();
    assert_eq!(sizes, want, "component sizes");
    p
}

/// Weak (`Both`) or strong components of the model, from reachability.
fn naive_components(m: &Model, strong: bool) -> BTreeSet<BTreeSet<NodeId>> {
    let reach: BTreeMap<NodeId, BTreeMap<NodeId, u32>> =
        m.0.keys()
            .map(|&v| {
                (
                    v,
                    naive_bfs(
                        m,
                        v,
                        if strong {
                            Direction::Out
                        } else {
                            Direction::Both
                        },
                    ),
                )
            })
            .collect();
    let mutual = |a: NodeId, b: NodeId| reach[&a].contains_key(&b) && reach[&b].contains_key(&a);
    m.0.keys()
        .map(|&a| m.0.keys().copied().filter(|&b| mutual(a, b)).collect())
        .collect()
}

/// Core numbers by peeling the model's undirected neighbour sets (a
/// self-loop counts once).
fn naive_cores(m: &Model) -> BTreeMap<NodeId, u32> {
    let sym = m.symmetric();
    let mut core: BTreeMap<NodeId, u32> = sym.keys().map(|&v| (v, 0)).collect();
    for k in 1.. {
        let mut adj = sym.clone();
        while let Some(v) = adj.iter().find(|(_, n)| n.len() < k).map(|(&v, _)| v) {
            adj.remove(&v);
            adj.values_mut().for_each(|n| {
                n.remove(&v);
            });
        }
        if adj.is_empty() {
            break;
        }
        for v in adj.into_keys() {
            core.insert(v, k as u32);
        }
    }
    core
}

/// Triangles of the model's undirected graph: triples of distinct,
/// pairwise adjacent nodes.
fn naive_triangles(m: &Model) -> u64 {
    let sym = m.symmetric();
    let ids: Vec<NodeId> = sym.keys().copied().collect();
    let adj = |a: NodeId, b: NodeId| sym[&a].contains(&b);
    let mut t = 0;
    for (i, &a) in ids.iter().enumerate() {
        for (j, &b) in ids.iter().enumerate().skip(i + 1) {
            for &c in &ids[j + 1..] {
                t += u64::from(adj(a, b) && adj(b, c) && adj(a, c));
            }
        }
    }
    t
}

#[test]
fn every_digraph_on_three_nodes_reads_and_runs_the_same_however_built() {
    let _s = serial();
    let mut graphs = 0;
    for n in 0..=3 {
        for mask in 0..1u32 << (n * n) {
            let arcs: Vec<(NodeId, NodeId)> = (0..n * n)
                .filter(|&b| mask >> b & 1 == 1)
                .map(|b| (IDS[b / n], IDS[b % n]))
                .collect();
            let model = Model::of(&IDS[..n], &arcs);
            let sym = model.symmetric();
            for (how, g, u) in three_ways(n, mask) {
                let what = format!("n {n} mask {mask:#b} {how}");
                assert_holds(&g, &model, &what);
                let got: BTreeMap<NodeId, BTreeSet<NodeId>> = (0..u.n_slots())
                    .filter_map(|s| Some((u.slot_id(s)?, row_ids(&u, u.out_row(s), &what))))
                    .collect();
                assert_eq!(got, sym, "{what}: undirected rows");
                assert_eq!(u.edge_count(), sym_edges(&sym), "{what}: undirected edges");
                assert_eq!(
                    core_numbers(&u)
                        .iter()
                        .map(|(id, &c)| (id, c))
                        .collect::<BTreeMap<_, _>>(),
                    naive_cores(&model),
                    "{what}: cores"
                );
                for threads in [1, 2, 4] {
                    let what = format!("{what} at {threads} threads");
                    assert_kernels(&g, &u, &model, threads, &what);
                }
                graphs += 1;
            }
        }
    }
    assert_eq!(graphs, 3 * (1 + 2 + 16 + 512));
}

/// Undirected edges of neighbour sets, each once.
fn sym_edges(sym: &BTreeMap<NodeId, BTreeSet<NodeId>>) -> usize {
    let ends: usize = sym.values().map(BTreeSet::len).sum();
    let loops = sym.iter().filter(|(v, n)| n.contains(v)).count();
    (ends - loops) / 2 + loops
}

/// BFS from every node in every direction, WCC, SCC and triangles of `g`
/// and `u` at `threads` against the naive references.
fn assert_kernels(g: &DirectedGraph, u: &UndirectedGraph, m: &Model, threads: usize, what: &str) {
    for &src in m.0.keys() {
        for dir in [Direction::Out, Direction::In, Direction::Both] {
            let got = FrontierEngine::with_threads(g, dir, threads).distances(src);
            let got: BTreeMap<NodeId, u32> = got.iter().map(|(id, &d)| (id, d)).collect();
            assert_eq!(got, naive_bfs(m, src, dir), "{what}: bfs {src} {dir:?}");
        }
        let got = FrontierEngine::with_threads(u, Direction::Out, threads).distances(src);
        let got: BTreeMap<NodeId, u32> = got.iter().map(|(id, &d)| (id, d)).collect();
        assert_eq!(
            got,
            naive_bfs(m, src, Direction::Both),
            "{what}: undirected bfs {src}"
        );
    }
    let (wcc, scc) = with_threads(threads, || {
        (
            weakly_connected_components(g),
            strongly_connected_components(g),
        )
    });
    assert_eq!(partition(&wcc), naive_components(m, false), "{what}: wcc");
    assert_eq!(partition(&scc), naive_components(m, true), "{what}: scc");
    assert_eq!(
        count_triangles(u, threads),
        naive_triangles(m),
        "{what}: triangles"
    );
}

/// Out-neighbour sets by node: a directed model's out sides, or an
/// undirected graph's neighbour sets.
type Adj = BTreeMap<NodeId, BTreeSet<NodeId>>;

fn out_sets(m: &Model) -> Adj {
    m.0.iter()
        .map(|(&id, [out, _])| (id, out.clone()))
        .collect()
}

/// Ids `adj` does not hold: below its least, above its greatest, beside
/// and between every pair of its ids, and the extremes of `i64`.
fn absent_probes(adj: &Adj) -> Vec<NodeId> {
    let ids: Vec<NodeId> = adj.keys().copied().collect();
    let mut probes = vec![i64::MIN, i64::MAX, 0, -1, 1 << 50, (1 << 50) + 1];
    for &id in &ids {
        probes.extend([id.wrapping_sub(1), id.wrapping_add(1), id ^ 1 << 40]);
    }
    for w in ids.windows(2) {
        probes.push(((i128::from(w[0]) + i128::from(w[1])) / 2) as NodeId);
    }
    probes.retain(|p| !adj.contains_key(p));
    probes
}

/// Hop distances from `src` over `adj`.
fn hops(adj: &Adj, src: NodeId) -> BTreeMap<NodeId, u32> {
    let mut dist = BTreeMap::from([(src, 0)]);
    let mut frontier = vec![src];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for v in frontier {
            for &u in &adj[&v] {
                if !dist.contains_key(&u) {
                    dist.insert(u, dist[&v] + 1);
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// `g`'s id index answers as `adj` does: every held id is a node in a
/// slot that holds it, with `adj`'s neighbours in ascending slot order;
/// every absent probe is no node and has none. A BFS's `NodeValues`
/// answers the same ids, at threads 1 and 2, from two sources.
fn assert_index<G: DirectedTopology>(
    g: &G,
    adj: &Adj,
    has: impl Fn(NodeId) -> bool,
    nbrs: impl Fn(NodeId) -> Vec<NodeId>,
    what: &str,
) {
    assert_eq!(g.node_count(), adj.len(), "{what}: node count");
    for (&id, want) in adj {
        assert!(has(id), "{what}: has_node({id})");
        let s = g
            .slot_of(id)
            .unwrap_or_else(|| panic!("{what}: slot_of({id})"));
        assert_eq!(g.slot_id(s), Some(id), "{what}: slot {s} holds {id}");
        let got = nbrs(id);
        let slots: Vec<usize> = got.iter().map(|&n| g.slot_of(n).unwrap()).collect();
        assert!(slots.is_sorted_by(|a, b| a < b), "{what}: {id}'s row order");
        assert_eq!(
            &got.into_iter().collect::<BTreeSet<_>>(),
            want,
            "{what}: {id}"
        );
    }
    let absent = absent_probes(adj);
    for &p in &absent {
        assert!(!has(p), "{what}: has_node({p}) of an absent id");
        assert_eq!(g.slot_of(p), None, "{what}: slot_of({p}) of an absent id");
        assert!(nbrs(p).is_empty(), "{what}: neighbours of absent {p}");
    }
    let step = (adj.len() / 2).max(1);
    for &src in adj.keys().step_by(step).take(2) {
        let want = hops(adj, src);
        for threads in [1, 2] {
            let dist = with_threads(threads, || bfs_distances(g, src, Direction::Out));
            for &id in adj.keys().chain(&absent) {
                let what = format!("{what}: BFS from {src} at {threads} threads, {id}");
                assert_eq!(dist.get(id), want.get(&id), "{what}");
            }
        }
    }
}

fn assert_directed(g: &DirectedGraph, m: &Model, what: &str) {
    assert_holds(g, m, what);
    let nbrs = |id| g.out_nbrs(id).collect();
    assert_index(g, &out_sets(m), |id| g.has_node(id), nbrs, what);
}

/// The `k`-core of `g`'s undirected view against the model's core
/// numbers, through the same checks.
fn assert_k_core(g: &DirectedGraph, m: &Model, k: u32, what: &str) {
    let cores = naive_cores(m);
    let want: Adj = m
        .symmetric()
        .into_iter()
        .filter(|(id, _)| cores[id] >= k)
        .map(|(id, n)| (id, n.into_iter().filter(|n| cores[n] >= k).collect()))
        .collect();
    for threads in [1, 2] {
        let core = Ringo::with_threads(threads).k_core(&g.to_undirected(), k);
        let what = format!("{what}: {k}-core at {threads} threads");
        assert_index(
            &core,
            &want,
            |id| core.has_node(id),
            |id| core.nbrs(id).collect(),
            &what,
        );
    }
}

/// An id from the sparse universe: two clusters 2^50 apart, the ends of
/// `i64`, and anywhere at all.
fn sparse_id(rng: &mut Rng64) -> NodeId {
    match rng.below(8) {
        0 => i64::MIN + rng.range_i64(0..3),
        1 => i64::MAX - rng.range_i64(0..3),
        2 => rng.i64(),
        3..=5 => rng.range_i64(-40..40),
        _ => (1 << 50) + rng.range_i64(-40..40),
    }
}

/// A chain of versions from `base`, which holds `model`: each a clone of
/// the last, edited — nodes added, deleted and their slots reused by new
/// ids, edges added to new ids and deleted — and sometimes replaced by an
/// `induced` subgraph. Every version is kept and checked again after each
/// of its successors, with the `k`-cores of the newest.
fn sparse_chain(base: DirectedGraph, mut model: Model, seed: u64, steps: usize) -> u32 {
    let mut rng = Rng64::new(seed);
    let mut kept = vec![(base, model.clone())];
    let mut reused = 0;
    for step in 0..steps {
        let mut g = kept[kept.len() - 1].0.clone();
        for _ in 0..rng.range_usize(4..16) {
            let held: Vec<NodeId> = model.0.keys().copied().collect();
            let any = |rng: &mut Rng64| match held.len() {
                0 => sparse_id(rng),
                n if rng.bool() => held[rng.below(n)],
                _ => sparse_id(rng),
            };
            match rng.below(8) {
                0 => {
                    let id = sparse_id(&mut rng);
                    assert_eq!(g.add_node(id), model.add_node(id), "add_node({id})");
                }
                1 | 2 if !held.is_empty() => {
                    // A node leaves and a new id takes its slot.
                    let gone = held[rng.below(held.len())];
                    let slot = g.slot_of(gone);
                    assert!(g.del_node(gone) && model.del_node(gone), "del_node({gone})");
                    let id = sparse_id(&mut rng);
                    assert_eq!(g.add_node(id), model.add_node(id), "add_node({id})");
                    if g.slot_of(id) == slot {
                        reused += 1;
                    }
                }
                3..=5 => {
                    let (a, b) = (any(&mut rng), any(&mut rng));
                    assert_eq!(g.add_edge(a, b), model.add_edge(a, b), "add_edge({a}, {b})");
                }
                6 => {
                    let (a, b) = (any(&mut rng), any(&mut rng));
                    assert_eq!(g.del_edge(a, b), model.del_edge(a, b), "del_edge({a}, {b})");
                }
                _ => {
                    let id = any(&mut rng);
                    assert_eq!(g.del_node(id), model.del_node(id), "del_node({id})");
                }
            }
        }
        if rng.below(4) == 0 {
            let keep = |id: NodeId| id.rem_euclid(3) != 0;
            g = g.induced(keep);
            let dropped: Vec<NodeId> = model.0.keys().copied().filter(|&id| !keep(id)).collect();
            for id in dropped {
                model.del_node(id);
            }
        }
        kept.push((g, model.clone()));
        for (v, (g, m)) in kept.iter().enumerate() {
            assert_directed(g, m, &format!("seed {seed} step {step}: v{v}"));
        }
        let what = format!("seed {seed} step {step}");
        assert_k_core(&kept[kept.len() - 1].0, &model, 2, &what);
    }
    reused
}

#[test]
fn ids_spread_over_i64_find_their_slots_in_every_version() {
    let _s = serial();
    let mut rng = Rng64::new(5);
    let mut edges: Vec<(NodeId, NodeId)> = (0..120)
        .map(|_| (sparse_id(&mut rng), sparse_id(&mut rng)))
        .collect();
    edges.extend([(i64::MIN, i64::MAX), (i64::MAX, 1 << 50), (0, i64::MIN)]);
    let model = Model::of(&[], &edges);
    let mut reused = 0;
    for threads in [1, 2] {
        let t = edges_to_table(&edges);
        let g = ringo::convert::table_to_graph_threads(&t, "src", "dst", threads).unwrap();
        assert_directed(&g, &model, &format!("converted at {threads} threads"));
        reused += sparse_chain(g, model.clone(), 40 + threads as u64, 8);
    }

    // The same graph from parts in shuffled order: the ids past the first
    // that does not ascend are indexed by the overlay.
    let mut parts: Vec<(NodeId, Vec<NodeId>, Vec<NodeId>)> = model
        .0
        .iter()
        .map(|(&id, [out, inn])| {
            (
                id,
                inn.iter().copied().collect(),
                out.iter().copied().collect(),
            )
        })
        .collect();
    rng.shuffle(&mut parts);
    let shuffled = DirectedGraph::from_parts(parts);
    assert_directed(&shuffled, &model, "shuffled parts");
    reused += sparse_chain(shuffled, model.clone(), 50, 8);

    // The empty and the one-node graph, each bulk-built and grown by edits.
    let one = Model::of(&[i64::MIN], &[]);
    for (how, g, m) in [
        ("empty", DirectedGraph::new(), Model::default()),
        (
            "empty parts",
            DirectedGraph::from_parts(Vec::new()),
            Model::default(),
        ),
        (
            "one node",
            DirectedGraph::from_parts(vec![(i64::MIN, vec![], vec![])]),
            one,
        ),
    ] {
        assert_directed(&g, &m, how);
        reused += sparse_chain(g, m, 60 + how.len() as u64, 6);
    }
    assert!(reused > 5, "freed slots reused {reused} times");
}
