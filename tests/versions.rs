//! Graph versions share what they have not written: a clone shares the id
//! index and every neighbour list with its parent until it edits them.
//! Seeded chains of versions against a `BTreeSet` oracle: every retained
//! version must still hold exactly what it held when it was made, however
//! its successors were edited — lists edited in place, copied on a first
//! edit, rebound by `compact`, nodes deleted and their slots reused — and
//! kernels on the last version must be bit-equal to those on a slab-form
//! rebuild of it at threads 1/2/4.

use ringo::algo::{pagerank, FrontierEngine};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{DirectedGraph, Direction, NodeId, PageRankConfig, UndirectedGraph};
use ringo_rng::Rng64;
use std::collections::{BTreeMap, BTreeSet};

/// What a version holds: per node its sorted lists (out then in for a
/// directed graph, the one list for an undirected one).
type View = BTreeMap<NodeId, Vec<Vec<NodeId>>>;

/// The two graph types share method names, not a mutation trait.
trait Version: Clone + DirectedTopology {
    const DIRECTED: bool;
    fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool;
    fn del_edge(&mut self, a: NodeId, b: NodeId) -> bool;
    fn add_node(&mut self, id: NodeId) -> bool;
    fn del_node(&mut self, id: NodeId) -> bool;
    fn has_node(&self, id: NodeId) -> bool;
    fn compact(&mut self);
    fn lists(&self, id: NodeId) -> Vec<Vec<NodeId>>;
    fn edges(&self) -> usize;
    fn rebuilt(&self) -> Self;
}

macro_rules! version {
    ($ty:ty, $directed:expr, |$g:ident, $id:ident| $lists:expr) => {
        impl Version for $ty {
            const DIRECTED: bool = $directed;
            fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
                <$ty>::add_edge(self, a, b)
            }
            fn del_edge(&mut self, a: NodeId, b: NodeId) -> bool {
                <$ty>::del_edge(self, a, b)
            }
            fn add_node(&mut self, id: NodeId) -> bool {
                <$ty>::add_node(self, id)
            }
            fn del_node(&mut self, id: NodeId) -> bool {
                <$ty>::del_node(self, id)
            }
            fn has_node(&self, id: NodeId) -> bool {
                <$ty>::has_node(self, id)
            }
            fn compact(&mut self) {
                <$ty>::compact(self);
            }
            fn lists(&self, $id: NodeId) -> Vec<Vec<NodeId>> {
                let $g = self;
                $lists
            }
            fn edges(&self) -> usize {
                <$ty>::edge_count(self)
            }
            fn rebuilt(&self) -> Self {
                self.induced(|_| true)
            }
        }
    };
}

version!(DirectedGraph, true, |g, id| vec![
    sorted(g.out_nbrs(id)),
    sorted(g.in_nbrs(id))
]);
version!(UndirectedGraph, false, |g, id| vec![sorted(g.nbrs(id))]);

/// A list in id order (a graph keeps it in slot order).
fn sorted(ids: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = ids.collect();
    v.sort_unstable();
    v
}

/// The oracle: a node set and an edge set, `(min, max)` when undirected.
#[derive(Clone)]
struct Model {
    directed: bool,
    nodes: BTreeSet<NodeId>,
    edges: BTreeSet<(NodeId, NodeId)>,
}

impl Model {
    fn key(&self, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if self.directed {
            (a, b)
        } else {
            (a.min(b), a.max(b))
        }
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        self.nodes.extend([a, b]);
        self.edges.insert(self.key(a, b))
    }

    fn del_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        self.edges.remove(&self.key(a, b))
    }

    fn del_node(&mut self, id: NodeId) -> bool {
        self.edges.retain(|&(s, d)| s != id && d != id);
        self.nodes.remove(&id)
    }

    fn view(&self) -> View {
        let mut view: View = self
            .nodes
            .iter()
            .map(|&id| (id, vec![Vec::new(); 1 + usize::from(self.directed)]))
            .collect();
        for &(s, d) in &self.edges {
            view.get_mut(&s).unwrap()[0].push(d);
            let back = usize::from(self.directed);
            if s != d || self.directed {
                view.get_mut(&d).unwrap()[back].push(s);
            }
        }
        for lists in view.values_mut() {
            lists.iter_mut().for_each(|l| l.sort_unstable());
        }
        view
    }
}

/// `g` holds exactly `want`: the same nodes, found through the index, with
/// the same lists, and the same edge count.
fn assert_holds<G: Version>(g: &G, want: &View, edges: usize, what: &str) {
    let got: View = (0..g.n_slots())
        .filter_map(|s| g.slot_id(s))
        .map(|id| (id, g.lists(id)))
        .collect();
    assert_eq!(&got, want, "{what}: lists");
    assert!(want.keys().all(|&id| g.has_node(id)), "{what}: index");
    assert_eq!(g.node_count(), want.len(), "{what}: node count");
    assert_eq!(g.edges(), edges, "{what}: edge count");
}

/// A chain of `versions` versions from `base`: each a clone of the last,
/// edited, sometimes compacted. After every step every retained version
/// is checked against the view recorded when it was made. Returns the
/// last version and its model, and how often a deleted node's slot went
/// to a new id.
fn chain<G: Version>(base: G, seed: u64, versions: usize) -> (G, Model, u32) {
    let mut rng = Rng64::new(seed);
    let mut model = Model {
        directed: G::DIRECTED,
        nodes: (0..base.n_slots())
            .filter_map(|s| base.slot_id(s))
            .collect(),
        edges: BTreeSet::new(),
    };
    for id in model.nodes.clone() {
        for &d in &base.lists(id)[0] {
            model.edges.insert(model.key(id, d));
        }
    }
    let universe = 2 * model.nodes.len().max(8) as NodeId;
    let mut fresh = 1_000_000;
    let mut reused = 0;
    let mut kept: Vec<(G, View, usize)> = vec![(base.clone(), model.view(), model.edges.len())];
    for step in 1..versions {
        let mut g = kept.last().expect("a version").0.clone();
        for _ in 0..rng.range_usize(20..80) {
            let (a, b) = (rng.range_i64(0..universe), rng.range_i64(0..universe));
            match rng.below(12) {
                0..=4 => assert_eq!(g.add_edge(a, b), model.add_edge(a, b)),
                5..=8 => {
                    let (a, b) = match model.edges.iter().nth(rng.below(model.edges.len() + 1)) {
                        Some(&e) if rng.below(4) > 0 => e,
                        _ => (a, b),
                    };
                    assert_eq!(g.del_edge(a, b), model.del_edge(a, b));
                }
                9 => assert_eq!(g.del_node(a), model.del_node(a)),
                10 => {
                    fresh += 1;
                    let id = if fresh % 2 == 0 { fresh } else { -fresh };
                    let slots = g.n_slots();
                    assert!(g.add_node(id) && model.nodes.insert(id));
                    reused += u32::from(g.n_slots() == slots);
                }
                _ => assert_eq!(g.add_node(a), model.nodes.insert(a)),
            }
        }
        if rng.below(4) == 0 {
            g.compact();
        }
        kept.push((g, model.view(), model.edges.len()));
        for (v, (g, want, edges)) in kept.iter().enumerate() {
            assert_holds(g, want, *edges, &format!("seed {seed} step {step}: v{v}"));
        }
    }
    let (last, _, _) = kept.pop().expect("a version");
    (last, model, reused)
}

fn rmat_edges(seed: u64) -> Vec<(NodeId, NodeId)> {
    rmat(&RmatConfig {
        scale: 8,
        edges: 1_500,
        seed,
        ..Default::default()
    })
}

/// The last version of a chain, its vacant slots refilled so a slab-form
/// rebuild has the same slots, against that rebuild: PageRank bits and
/// BFS distances and parents at threads 1/2/4.
fn assert_kernels_match_the_rebuild<G: Version>(mut g: G, mut model: Model) {
    let mut fresh = -5_000_000;
    while g.n_slots() > g.node_count() {
        fresh -= 1;
        assert!(g.add_node(fresh) && model.nodes.insert(fresh));
    }
    assert_holds(&g, &model.view(), model.edges.len(), "refilled");
    let rebuilt = g.rebuilt();
    assert_holds(&rebuilt, &model.view(), model.edges.len(), "rebuilt");
    let slots = |g: &G| (0..g.n_slots()).map(|s| g.slot_id(s)).collect::<Vec<_>>();
    assert_eq!(slots(&g), slots(&rebuilt), "same slot layout");
    let src = (0..g.n_slots())
        .filter_map(|s| g.slot_id(s))
        .max_by_key(|&id| (g.lists(id)[0].len(), id))
        .expect("non-empty");
    for threads in [1, 2, 4] {
        let config = PageRankConfig {
            iterations: 12,
            threads,
            ..PageRankConfig::default()
        };
        let bits = |g: &G| -> Vec<(NodeId, u64)> {
            pagerank(g, &config)
                .iter()
                .map(|(id, score)| (id, score.to_bits()))
                .collect()
        };
        assert_eq!(bits(&g), bits(&rebuilt), "pagerank at {threads} threads");
        for dir in [Direction::Out, Direction::In] {
            let run = |g: &G| {
                let eng = FrontierEngine::with_threads(g, dir, threads);
                (eng.run(src).expect("src is live").dist, eng.tree(src))
            };
            assert_eq!(run(&g), run(&rebuilt), "bfs {dir:?} at {threads} threads");
        }
    }
}

#[test]
fn directed_versions_keep_what_they_held() {
    let mut reused = 0;
    for seed in [1, 2, 3] {
        // Slab views from a conversion, and lists of their own from edits.
        let converted =
            ringo::convert::table_to_graph(&edges_to_table(&rmat_edges(seed)), "src", "dst")
                .unwrap();
        let mut edited = DirectedGraph::new();
        for (s, d) in rmat_edges(seed + 10) {
            edited.add_edge(s, d);
        }
        for base in [converted, edited] {
            let (last, model, n) = chain(base, seed, 10);
            reused += n;
            assert_kernels_match_the_rebuild(last, model);
        }
    }
    assert!(reused > 10, "slots reused by new ids {reused} times");
}

#[test]
fn undirected_versions_keep_what_they_held() {
    let mut reused = 0;
    for seed in [4, 5, 6] {
        let converted =
            ringo::convert::table_to_undirected(&edges_to_table(&rmat_edges(seed)), "src", "dst")
                .unwrap();
        let mut edited = UndirectedGraph::new();
        for (s, d) in rmat_edges(seed + 10) {
            edited.add_edge(s, d);
        }
        for base in [converted, edited] {
            let (last, model, n) = chain(base, seed, 10);
            reused += n;
            assert_kernels_match_the_rebuild(last, model);
        }
    }
    assert!(reused > 10, "slots reused by new ids {reused} times");
}

#[test]
fn a_clone_shares_every_list_until_it_edits_one() {
    // What the sharing looks like from outside: a clone reports every
    // list of its own as shared, an edit takes back only what it copied.
    let mut g = DirectedGraph::new();
    for (s, d) in rmat_edges(7) {
        g.add_edge(s, d);
    }
    let own = g.adjacency_stats();
    assert_eq!(own.shared_lists, 0, "nothing shared before a clone");
    let mut next = g.clone();
    let shared = next.adjacency_stats();
    assert_eq!(shared.shared_lists, own.owned_lists);
    assert_eq!(shared.shared_bytes, own.owned_bytes);
    let (s, d) = next.edges().next().expect("an edge");
    assert!(next.del_edge(s, d));
    let after = next.adjacency_stats();
    assert_eq!(
        after.shared_lists,
        own.owned_lists - 2,
        "one out- and one in-list"
    );
    assert_eq!(g.adjacency_stats().shared_lists, own.owned_lists - 2);
    assert!(g.has_edge(s, d) && !next.has_edge(s, d));
    drop(next);
    assert_eq!(g.adjacency_stats().shared_lists, 0, "the clone let go");
}
