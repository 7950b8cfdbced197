//! Every kernel of `ringo-algo` reads the graphs' rows of neighbour slots
//! in place. Here each one is checked against an id-level oracle built on
//! std sets — a `BTreeSet` of edges, adjacency as `BTreeMap<NodeId,
//! BTreeSet<NodeId>>`, knowing nothing of slots — on every shape of graph
//! that moves slots away from ids: R-MAT, star, path, disconnected and
//! self-loop graphs built in bulk (slot order is id order there), graphs
//! built edit by edit in a scrambled id order, vacant and reused slots
//! after `del_node`, and the last version of a clone → edit → publish
//! chain; the kernels that take a thread count run at 1, 2 and 4. On
//! table-built graphs every output is pinned bit for bit to digests
//! recorded before the rows became the storage (the score kernels: before
//! they shared one sweep), and every score kernel returns the same bits
//! at any thread count.

use ringo::algo::HitsScores;
use ringo::algo::{
    approx_diameter, betweenness_centrality, betweenness_centrality_sampled, bfs_order,
    closeness_centrality, core_numbers, count_triangles, degree_centrality, degree_histogram,
    dfs_order, dijkstra_weighted, eigenvector_centrality, hits, k_core, label_propagation,
    node_clustering, node_triangles, pagerank, pagerank_weighted, personalized_pagerank,
    sssp_dijkstra, sssp_unweighted, strongly_connected_components, topological_sort, triad_census,
    weakly_connected_components, Components, FrontierEngine,
};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{
    DirectedGraph, Direction, NodeId, NodeValues, PageRankConfig, Ringo, UndirectedGraph,
    WeightedDigraph,
};
use ringo_rng::Rng64;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

type Edge = (NodeId, NodeId);
type Adj = BTreeMap<NodeId, BTreeSet<NodeId>>;
type Partition = BTreeSet<BTreeSet<NodeId>>;

/// The id-level model of a graph: its nodes and edges (`(min, max)`
/// pairs when undirected).
#[derive(Clone, Default)]
struct Model {
    directed: bool,
    nodes: BTreeSet<NodeId>,
    edges: BTreeSet<Edge>,
}

impl Model {
    fn new(directed: bool) -> Self {
        Self {
            directed,
            ..Self::default()
        }
    }

    fn key(&self, a: NodeId, b: NodeId) -> Edge {
        if self.directed {
            (a, b)
        } else {
            (a.min(b), a.max(b))
        }
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId) {
        self.nodes.extend([a, b]);
        self.edges.insert(self.key(a, b));
    }

    fn del_edge(&mut self, a: NodeId, b: NodeId) {
        self.edges.remove(&self.key(a, b));
    }

    fn del_node(&mut self, v: NodeId) {
        self.nodes.remove(&v);
        self.edges.retain(|&(a, b)| a != v && b != v);
    }

    /// Adjacency along `dir`, every node a key; undirected models are
    /// symmetric whatever the direction.
    fn adj(&self, dir: Direction) -> Adj {
        let mut adj: Adj = self.nodes.iter().map(|&v| (v, BTreeSet::new())).collect();
        for &(a, b) in &self.edges {
            let both = dir == Direction::Both || !self.directed;
            if dir == Direction::Out || both {
                adj.get_mut(&a).expect("endpoint").insert(b);
            }
            if dir == Direction::In || both {
                adj.get_mut(&b).expect("endpoint").insert(a);
            }
        }
        adj
    }
}

/// One graph in both forms, with its models.
struct Case {
    name: String,
    g: DirectedGraph,
    u: UndirectedGraph,
    dm: Model,
    um: Model,
}

impl Case {
    /// Built in bulk by the conversions: slot order is id order.
    fn bulk(name: &str, edges: &[Edge]) -> Self {
        let t = edges_to_table(edges);
        let (mut dm, mut um) = (Model::new(true), Model::new(false));
        for &(a, b) in edges {
            dm.add_edge(a, b);
            um.add_edge(a, b);
        }
        Self {
            name: name.into(),
            g: ringo::convert::table_to_graph(&t, "src", "dst").unwrap(),
            u: ringo::convert::table_to_undirected(&t, "src", "dst").unwrap(),
            dm,
            um,
        }
    }

    /// Built edit by edit: `extra` isolated nodes, every node added in a
    /// scrambled order, then the edges in another.
    fn edited(name: &str, edges: &[Edge], extra: &[NodeId], seed: u64) -> Self {
        let mut rng = Rng64::new(seed);
        let mut nodes: Vec<NodeId> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        nodes.extend(extra);
        nodes.sort_unstable();
        nodes.dedup();
        rng.shuffle(&mut nodes);
        let mut edges = edges.to_vec();
        rng.shuffle(&mut edges);
        let mut case = Self {
            name: name.into(),
            g: DirectedGraph::new(),
            u: UndirectedGraph::new(),
            dm: Model::new(true),
            um: Model::new(false),
        };
        for &v in &nodes {
            case.add_node(v);
        }
        for &(a, b) in &edges {
            case.add_edge(a, b);
        }
        case
    }

    fn add_node(&mut self, v: NodeId) {
        self.g.add_node(v);
        self.u.add_node(v);
        self.dm.nodes.insert(v);
        self.um.nodes.insert(v);
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId) {
        self.g.add_edge(a, b);
        self.u.add_edge(a, b);
        self.dm.add_edge(a, b);
        self.um.add_edge(a, b);
    }

    fn del_edge(&mut self, a: NodeId, b: NodeId) {
        self.g.del_edge(a, b);
        self.u.del_edge(a, b);
        self.dm.del_edge(a, b);
        self.um.del_edge(a, b);
    }

    fn del_node(&mut self, v: NodeId) {
        self.g.del_node(v);
        self.u.del_node(v);
        self.dm.del_node(v);
        self.um.del_node(v);
    }

    /// Every fourth node deleted, then new ids reusing the vacant slots,
    /// each wired to a few survivors.
    fn holes(mut self, seed: u64) -> Self {
        self.name += " with holes";
        let ids: Vec<NodeId> = self.g.node_ids().collect();
        for &v in ids.iter().step_by(4) {
            self.del_node(v);
        }
        assert!(self.g.n_slots() > self.g.node_count());
        let live: Vec<NodeId> = self.g.node_ids().collect();
        let mut rng = Rng64::new(seed);
        for k in 0..(ids.len() / 8) as NodeId {
            let v = 1_000_000 - 7 * k;
            self.add_node(v);
            for _ in 0..3 {
                let w = live[rng.below(live.len())];
                if rng.bool() {
                    self.add_edge(v, w);
                } else {
                    self.add_edge(w, v);
                }
            }
        }
        self
    }

    /// Three versions through the catalog: each a clone of the current
    /// one, edited and published while the previous version stays pinned.
    fn chain(mut self, seed: u64) -> Self {
        self.name += " after a publish chain";
        let ringo = Ringo::new();
        ringo.publish_graph("g", self.g.clone());
        let mut rng = Rng64::new(seed);
        let mut pins = Vec::new();
        let mut older = Vec::new();
        for step in 0..3 {
            let snap = ringo.snapshot();
            self.g = DirectedGraph::clone(snap.graph("g").expect("published"));
            older.push(self.u.clone());
            pins.push(snap);
            let ids: Vec<NodeId> = self.g.node_ids().collect();
            for k in 0..40 {
                let (a, b) = (ids[rng.below(ids.len())], ids[rng.below(ids.len())]);
                match k % 4 {
                    0 => self.del_edge(a, b),
                    3 if k % 12 == 3 => self.del_node(a),
                    _ => self.add_edge(a, b),
                }
            }
            self.add_edge(-50 - step, ids[0]);
            ringo.publish_graph("g", self.g.clone());
        }
        self.g = DirectedGraph::clone(ringo.snapshot().graph("g").expect("published"));
        self
    }

    fn src(&self) -> NodeId {
        *self
            .dm
            .adj(Direction::Out)
            .iter()
            .max_by_key(|(&v, out)| (out.len(), std::cmp::Reverse(v)))
            .expect("non-empty")
            .0
    }
}

/// Hop distances from `src` over `adj`.
fn bfs(adj: &Adj, src: NodeId) -> BTreeMap<NodeId, u32> {
    let mut dist = BTreeMap::from([(src, 0u32)]);
    let mut queue = VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        for &w in &adj[&v] {
            dist.entry(w).or_insert_with(|| {
                queue.push_back(w);
                d + 1
            });
        }
    }
    dist
}

/// Components of an undirected adjacency (self-loops ignored).
fn components(adj: &Adj) -> Partition {
    let mut seen = BTreeSet::new();
    let mut parts = Partition::new();
    for &v in adj.keys() {
        if seen.insert(v) {
            let part: BTreeSet<NodeId> = bfs(adj, v).into_keys().collect();
            seen.extend(&part);
            parts.insert(part);
        }
    }
    parts
}

fn partition(c: &Components) -> Partition {
    let mut groups: BTreeMap<u32, BTreeSet<NodeId>> = BTreeMap::new();
    for (id, &label) in c.comp_of.iter() {
        groups.entry(label).or_default().insert(id);
    }
    groups.into_values().collect()
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// The ids a row of slots names, as a set.
fn row_ids<G: DirectedTopology>(g: &G, row: &[u32]) -> BTreeSet<NodeId> {
    row.iter()
        .map(|&t| g.slot_id(t as usize).expect("a row names live slots"))
        .collect()
}

/// PageRank by the definition, over the model.
fn pagerank_oracle(m: &Model, iterations: usize) -> BTreeMap<NodeId, f64> {
    let (out, inn) = (m.adj(Direction::Out), m.adj(Direction::In));
    let n = m.nodes.len() as f64;
    let mut rank: BTreeMap<NodeId, f64> = m.nodes.iter().map(|&v| (v, 1.0 / n)).collect();
    for _ in 0..iterations {
        let dangling: f64 = out
            .iter()
            .filter(|(_, o)| o.is_empty())
            .map(|(v, _)| rank[v])
            .sum();
        let base = 0.15 / n + 0.85 * dangling / n;
        rank = inn
            .iter()
            .map(|(&v, ins)| {
                let pulled: f64 = ins.iter().map(|u| rank[u] / out[u].len() as f64).sum();
                (v, base + 0.85 * pulled)
            })
            .collect();
    }
    rank
}

/// Personalized PageRank by the definition, over the model: the restart
/// and the dangling mass return to the seeds.
fn ppr_oracle(m: &Model, seeds: &[NodeId], iterations: usize) -> BTreeMap<NodeId, f64> {
    let (out, inn) = (m.adj(Direction::Out), m.adj(Direction::In));
    let seeds: BTreeSet<NodeId> = seeds.iter().copied().collect();
    let mass = 1.0 / seeds.len() as f64;
    let restart = |v: &NodeId, x: f64| if seeds.contains(v) { x * mass } else { 0.0 };
    let mut rank: BTreeMap<NodeId, f64> = m.nodes.iter().map(|v| (*v, restart(v, 1.0))).collect();
    for _ in 0..iterations {
        let dangling: f64 = out
            .iter()
            .filter(|(_, o)| o.is_empty())
            .map(|(v, _)| rank[v])
            .sum();
        rank = inn
            .iter()
            .map(|(v, ins)| {
                let walk: f64 = ins.iter().map(|u| rank[u] / out[u].len() as f64).sum();
                (*v, restart(v, 0.15 + 0.85 * dangling) + 0.85 * walk)
            })
            .collect();
    }
    rank
}

/// The weight of edge `a -> b` in the weighted tests: not uniform over a
/// node's out-edges.
fn weight(a: NodeId, b: NodeId) -> f64 {
    1.0 + (a ^ b).rem_euclid(7) as f64 / 2.0
}

/// Weighted PageRank by the definition, over the model and [`weight`]: a
/// node's rank leaves along each out-edge in proportion to its weight.
fn weighted_pagerank_oracle(m: &Model, iterations: usize) -> BTreeMap<NodeId, f64> {
    let (out, inn) = (m.adj(Direction::Out), m.adj(Direction::In));
    let n = m.nodes.len() as f64;
    let strength = |u: &NodeId| out[u].iter().map(|&t| weight(*u, t)).sum::<f64>();
    let mut rank: BTreeMap<NodeId, f64> = m.nodes.iter().map(|&v| (v, 1.0 / n)).collect();
    for _ in 0..iterations {
        let dangling: f64 = out
            .iter()
            .filter(|(_, o)| o.is_empty())
            .map(|(v, _)| rank[v])
            .sum();
        let base = 0.15 / n + 0.85 * dangling / n;
        rank = inn
            .iter()
            .map(|(&v, ins)| {
                let pulled: f64 = ins
                    .iter()
                    .map(|u| rank[u] * weight(*u, v) / strength(u))
                    .sum();
                (v, base + 0.85 * pulled)
            })
            .collect();
    }
    rank
}

/// Shortest [`weight`]ed distances from `src`, by relaxing every edge of
/// the model until none improves.
fn weighted_distances(m: &Model, src: NodeId) -> BTreeMap<NodeId, f64> {
    let mut dist = BTreeMap::from([(src, 0.0)]);
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b) in &m.edges {
            let Some(&da) = dist.get(&a) else { continue };
            let cand = da + weight(a, b);
            if dist.get(&b).is_none_or(|&db| cand < db) {
                dist.insert(b, cand);
                changed = true;
            }
        }
    }
    dist
}

/// The nodes of the `k`-core by the definition (a self-loop counts one).
fn core_by_definition(adj: &Adj, k: usize) -> BTreeSet<NodeId> {
    let mut adj = adj.clone();
    while let Some(v) = adj.iter().find(|(_, nbrs)| nbrs.len() < k).map(|(&v, _)| v) {
        for w in adj.remove(&v).expect("just found") {
            if let Some(nbrs) = adj.get_mut(&w) {
                nbrs.remove(&v);
            }
        }
    }
    adj.into_keys().collect()
}

/// Triangles through each node of an undirected adjacency.
fn triangles_oracle(adj: &Adj) -> BTreeMap<NodeId, u64> {
    adj.iter()
        .map(|(&v, nbrs)| {
            let others: Vec<NodeId> = nbrs.iter().copied().filter(|&w| w != v).collect();
            let mut t = 0;
            for (i, a) in others.iter().enumerate() {
                for b in &others[i + 1..] {
                    t += u64::from(adj[a].contains(b));
                }
            }
            (v, t)
        })
        .collect()
}

/// Betweenness by its definition over shortest-path counts (directed,
/// unnormalized).
fn betweenness_oracle(out: &Adj) -> BTreeMap<NodeId, f64> {
    let sweep = |s: NodeId| {
        let dist = bfs(out, s);
        let mut by_depth: Vec<NodeId> = dist.keys().copied().collect();
        by_depth.sort_by_key(|v| dist[v]);
        let mut sigma: BTreeMap<NodeId, f64> = BTreeMap::from([(s, 1.0)]);
        for &v in &by_depth {
            for &w in &out[&v] {
                if dist[&w] == dist[&v] + 1 {
                    *sigma.entry(w).or_insert(0.0) += sigma[&v];
                }
            }
        }
        (dist, sigma)
    };
    let sweeps: BTreeMap<NodeId, _> = out.keys().map(|&s| (s, sweep(s))).collect();
    let mut bc: BTreeMap<NodeId, f64> = out.keys().map(|&v| (v, 0.0)).collect();
    for (&s, (ds, ss)) in &sweeps {
        for (&t, &dst) in ds {
            for (&v, &dsv) in ds {
                if v == s || v == t || t == s {
                    continue;
                }
                let (dv, sv) = &sweeps[&v];
                if dv.get(&t).is_some_and(|&dvt| dsv + dvt == dst) {
                    *bc.get_mut(&v).expect("node") += ss[&v] * sv[&t] / ss[&t];
                }
            }
        }
    }
    bc
}

/// Everything checked on one case.
fn check(case: &Case) {
    let ctx = &case.name;
    let (g, u) = (&case.g, &case.u);
    let (out, inn, both) = (
        case.dm.adj(Direction::Out),
        case.dm.adj(Direction::In),
        case.dm.adj(Direction::Both),
    );
    let und = case.um.adj(Direction::Out);
    assert_eq!(g.node_count(), case.dm.nodes.len(), "{ctx}");
    assert_eq!(g.edge_count(), case.dm.edges.len(), "{ctx}");
    assert_eq!(u.edge_count(), case.um.edges.len(), "{ctx}");

    // The rows themselves.
    for s in 0..g.n_slots() {
        let Some(v) = g.slot_id(s) else { continue };
        assert!(g.out_row(s).is_sorted() && g.in_row(s).is_sorted(), "{ctx}");
        assert_eq!(row_ids(g, g.out_row(s)), out[&v], "{ctx}: out-row of {v}");
        assert_eq!(row_ids(g, g.in_row(s)), inn[&v], "{ctx}: in-row of {v}");
    }
    for s in 0..u.n_slots() {
        let Some(v) = u.slot_id(s) else { continue };
        assert_eq!(row_ids(u, u.out_row(s)), und[&v], "{ctx}: row of {v}");
    }

    let src = case.src();
    let reached = bfs(&out, src);
    let bc = betweenness_oracle(&out);
    for threads in [1usize, 2, 4] {
        let ctx = format!("{ctx} at {threads} threads");
        // Traversals, distances and trees.
        for (dir, adj) in [
            (Direction::Out, &out),
            (Direction::In, &inn),
            (Direction::Both, &both),
        ] {
            let eng = FrontierEngine::with_threads(g, dir, threads);
            let want = bfs(adj, src);
            let got: BTreeMap<NodeId, u32> =
                eng.distances(src).iter().map(|(v, &d)| (v, d)).collect();
            assert_eq!(got, want, "{ctx}: bfs {dir:?}");
            let pull = |v: NodeId| -> &BTreeSet<NodeId> {
                match dir {
                    Direction::Out => &inn[&v],
                    Direction::In => &out[&v],
                    Direction::Both => &both[&v],
                }
            };
            for (v, &p) in eng.tree(src).iter() {
                if v == src {
                    assert_eq!(p, src, "{ctx}");
                    continue;
                }
                let preds: Vec<NodeId> = pull(v)
                    .iter()
                    .copied()
                    .filter(|w| want.get(w) == Some(&(want[&v] - 1)))
                    .collect();
                let min_slot = preds.iter().min_by_key(|&&w| g.slot_of(w)).copied();
                assert_eq!(Some(p), min_slot, "{ctx}: parent of {v} along {dir:?}");
            }
        }
        // Iterative scores.
        let config = PageRankConfig {
            iterations: 20,
            threads,
            ..PageRankConfig::default()
        };
        let want = pagerank_oracle(&case.dm, 20);
        for (v, &s) in pagerank(g, &config).iter() {
            assert!(close(s, want[&v], 1e-12), "{ctx}: pagerank of {v}");
        }
        let seeds = [src, *case.dm.nodes.last().expect("non-empty")];
        let want = ppr_oracle(&case.dm, &seeds, 20);
        let ppr = personalized_pagerank(g, &seeds, &config);
        assert_eq!(ppr.len(), want.len(), "{ctx}");
        for (v, &s) in ppr.iter() {
            assert!(close(s, want[&v], 1e-12), "{ctx}: ppr of {v}");
        }
        let scores = hits(g, 15, threads);
        let (mut hub, mut auth): (BTreeMap<NodeId, f64>, BTreeMap<NodeId, f64>) = (
            out.keys().map(|&v| (v, 1.0)).collect(),
            out.keys().map(|&v| (v, 1.0)).collect(),
        );
        let norm = |m: &mut BTreeMap<NodeId, f64>| {
            let n = m.values().map(|x| x * x).sum::<f64>().sqrt();
            if n > 0.0 {
                m.values_mut().for_each(|x| *x /= n);
            }
        };
        for _ in 0..15 {
            auth = inn
                .iter()
                .map(|(&v, ins)| (v, ins.iter().map(|w| hub[w]).sum()))
                .collect();
            norm(&mut auth);
            hub = out
                .iter()
                .map(|(&v, outs)| (v, outs.iter().map(|w| auth[w]).sum()))
                .collect();
            norm(&mut hub);
        }
        for (v, s) in scores.iter() {
            assert!(close(s.hub, hub[&v], 1e-9), "{ctx}: hub of {v}");
            assert!(
                close(s.authority, auth[&v], 1e-9),
                "{ctx}: authority of {v}"
            );
        }
        let mut ev: BTreeMap<NodeId, f64> = out.keys().map(|&v| (v, 1.0)).collect();
        norm(&mut ev);
        for _ in 0..12 {
            let next: BTreeMap<NodeId, f64> = inn
                .iter()
                .map(|(&v, ins)| (v, ins.iter().map(|w| ev[w]).sum::<f64>() + ev[&v]))
                .collect();
            ev = next;
            norm(&mut ev);
        }
        for (v, &s) in eigenvector_centrality(g, 12, 0.0, threads).iter() {
            assert!(close(s, ev[&v], 1e-9), "{ctx}: eigenvector of {v}");
        }
        // Triangles and clustering.
        let tri = triangles_oracle(&und);
        assert_eq!(
            count_triangles(u, threads),
            tri.values().sum::<u64>() / 3,
            "{ctx}"
        );
        for (v, &t) in node_triangles(u, threads).iter() {
            assert_eq!(t, tri[&v], "{ctx}: triangles of {v}");
        }
        for (v, &c) in node_clustering(u, threads).iter() {
            let d = und[&v].iter().filter(|&&w| w != v).count() as f64;
            let want = if d > 1.0 {
                2.0 * tri[&v] as f64 / (d * (d - 1.0))
            } else {
                0.0
            };
            assert!(close(c, want, 1e-12), "{ctx}: clustering of {v}");
        }
        // Betweenness, each source's BFS on `threads` workers.
        for (v, &s) in betweenness_centrality(g, false, threads).iter() {
            assert!(close(s, bc[&v], 1e-9), "{ctx}: betweenness of {v}");
        }
    }

    // Kernels without a thread count.
    let ctx = &case.name;
    let want = &reached;
    let got: BTreeMap<NodeId, u32> = sssp_unweighted(g, src, Direction::Out)
        .iter()
        .map(|(v, &d)| (v, d))
        .collect();
    assert_eq!(&got, want, "{ctx}: sssp");
    for (v, &d) in sssp_dijkstra(g, src, |_, _| 1.0).iter() {
        assert_eq!(d, f64::from(want[&v]), "{ctx}: dijkstra to {v}");
    }
    let order = bfs_order(g, src, Direction::Out);
    assert_eq!(order.len(), want.len(), "{ctx}");
    assert!(
        order.windows(2).all(|w| want[&w[0]] <= want[&w[1]]),
        "{ctx}"
    );
    let dfs = dfs_order(g, src);
    assert_eq!(
        dfs.iter().copied().collect::<BTreeSet<_>>(),
        want.keys().copied().collect(),
        "{ctx}: dfs reaches what bfs reaches"
    );
    for (i, v) in dfs.iter().enumerate().skip(1) {
        assert!(
            inn[v].iter().any(|p| dfs[..i].contains(p)),
            "{ctx}: dfs {v}"
        );
    }
    let closeness = closeness_centrality(g, src, Direction::Out);
    let (r, total) = (want.len() as f64 - 1.0, want.values().sum::<u32>() as f64);
    let n1 = g.node_count() as f64 - 1.0;
    let expect = if r > 0.0 { (r / total) * (r / n1) } else { 0.0 };
    assert!(close(closeness, expect, 1e-12), "{ctx}: closeness");

    assert_eq!(
        partition(&weakly_connected_components(g)),
        components(&both),
        "{ctx}: wcc"
    );
    let scc: Partition = out
        .keys()
        .map(|&v| {
            let back = bfs(&inn, v);
            bfs(&out, v)
                .into_keys()
                .filter(|w| back.contains_key(w))
                .collect()
        })
        .collect();
    assert_eq!(
        partition(&strongly_connected_components(g)),
        scc,
        "{ctx}: scc"
    );
    match topological_sort(g) {
        Some(order) => {
            assert!(scc.iter().all(|c| c.len() == 1), "{ctx}");
            assert!(case.dm.edges.iter().all(|(a, b)| a != b), "{ctx}");
            let pos: BTreeMap<NodeId, usize> =
                order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            assert_eq!(pos.len(), case.dm.nodes.len(), "{ctx}");
            assert!(case.dm.edges.iter().all(|(a, b)| pos[a] < pos[b]), "{ctx}");
        }
        None => assert!(
            scc.iter().any(|c| c.len() > 1) || case.dm.edges.iter().any(|(a, b)| a == b),
            "{ctx}: no cycle, no order"
        ),
    }

    // Degrees.
    for (dir, adj) in [(Direction::Out, &out), (Direction::In, &inn)] {
        let mut hist: BTreeMap<usize, usize> = BTreeMap::new();
        adj.values()
            .for_each(|n| *hist.entry(n.len()).or_default() += 1);
        assert_eq!(
            degree_histogram(g, dir),
            hist.into_iter().collect::<Vec<_>>(),
            "{ctx}: {dir:?} histogram"
        );
        let denom = (g.node_count() as f64 - 1.0).max(1.0);
        for (v, &c) in degree_centrality(g, dir).iter() {
            assert_eq!(c, adj[&v].len() as f64 / denom, "{ctx}");
        }
    }
    let diameter = out
        .keys()
        .map(|&v| bfs(&both, v).into_values().max().unwrap_or(0))
        .max()
        .unwrap_or(0);
    assert_eq!(
        approx_diameter(g, g.node_count(), Direction::Both),
        diameter,
        "{ctx}"
    );

    // Undirected structure.
    let core = core_numbers(u);
    for k in 0..=4u32 {
        let want = core_by_definition(&und, k as usize);
        let got: BTreeSet<NodeId> = core
            .iter()
            .filter(|(_, &c)| c >= k)
            .map(|(v, _)| v)
            .collect();
        assert_eq!(got, want, "{ctx}: core numbers at {k}");
        let kc = k_core(u, k);
        assert_eq!(
            kc.node_ids().collect::<BTreeSet<_>>(),
            want,
            "{ctx}: {k}-core"
        );
        for v in kc.node_ids() {
            let nbrs: BTreeSet<NodeId> = kc.nbrs(v).collect();
            let expect: BTreeSet<NodeId> = und[&v].intersection(&want).copied().collect();
            assert_eq!(nbrs, expect, "{ctx}: {k}-core row of {v}");
        }
    }
    let communities = label_propagation(u, 20, 7);
    let comps = components(&und);
    for part in partition(&communities) {
        assert!(comps.iter().any(|c| part.is_subset(c)), "{ctx}: community");
    }
    let mut census = [0u64; 16];
    let tri_ids: Vec<NodeId> = case.dm.nodes.iter().copied().collect();
    if tri_ids.len() <= 70 {
        let has = |a: &NodeId, b: &NodeId| u64::from(case.dm.edges.contains(&(*a, *b)));
        const TYPE: [u8; 64] = [
            1, 2, 2, 3, 2, 4, 6, 8, 2, 6, 5, 7, 3, 8, 7, 11, 2, 6, 4, 8, 5, 9, 9, 13, 6, 10, 9, 14,
            7, 14, 12, 15, 2, 5, 6, 7, 6, 9, 10, 14, 4, 9, 9, 12, 8, 13, 14, 15, 3, 7, 8, 11, 7,
            12, 14, 15, 8, 14, 13, 15, 11, 15, 15, 16,
        ];
        for (i, a) in tri_ids.iter().enumerate() {
            for (j, b) in tri_ids.iter().enumerate().skip(i + 1) {
                for c in &tri_ids[j + 1..] {
                    let code = has(a, b)
                        | has(b, a) << 1
                        | has(a, c) << 2
                        | has(c, a) << 3
                        | has(b, c) << 4
                        | has(c, b) << 5;
                    census[TYPE[code as usize] as usize - 1] += 1;
                }
            }
        }
        assert_eq!(triad_census(g).counts, census, "{ctx}: triad census");
    }

    // The weighted graph: the same edges, weights not uniform per node.
    let mut w = WeightedDigraph::new();
    for &v in &case.dm.nodes {
        w.add_node(v);
    }
    for &(a, b) in &case.dm.edges {
        w.add_edge(a, b, weight(a, b));
    }
    for threads in [1usize, 2, 4] {
        let config = PageRankConfig {
            iterations: 20,
            threads,
            ..PageRankConfig::default()
        };
        let want = weighted_pagerank_oracle(&case.dm, 20);
        for (v, &s) in pagerank_weighted(&w, &config).iter() {
            assert!(close(s, want[&v], 1e-12), "{ctx}: weighted pagerank of {v}");
        }
    }
    let want = weighted_distances(&case.dm, src);
    let dist = dijkstra_weighted(&w, src);
    assert_eq!(dist.len(), want.len(), "{ctx}: weighted sssp");
    for (v, &d) in dist.iter() {
        assert!(close(d, want[&v], 1e-12), "{ctx}: weighted sssp to {v}");
    }
}

fn rmat_edges(scale: u32, edges: usize, seed: u64) -> Vec<Edge> {
    rmat(&RmatConfig {
        scale,
        edges,
        seed,
        ..Default::default()
    })
}

/// Two directed cycles, a pair and a lone self-loop, far apart in id.
fn disconnected() -> Vec<Edge> {
    let mut edges: Vec<Edge> = (0..12).map(|i| (i, (i + 1) % 12)).collect();
    edges.extend((0..7).map(|i| (500 + i, 500 + (i + 3) % 7)));
    edges.extend([(-9, -8), (77, 77)]);
    edges
}

fn star() -> Vec<Edge> {
    let mut edges: Vec<Edge> = (1..=40).map(|i| (0, i)).collect();
    edges.extend((1..=10).map(|i| (i * 4, 0)));
    edges
}

fn path() -> Vec<Edge> {
    (0..40).map(|i| (i, i + 1)).collect()
}

fn with_loops() -> Vec<Edge> {
    let mut edges = rmat_edges(6, 250, 9);
    edges.extend((0..64).step_by(3).map(|i| (i, i)));
    edges
}

#[test]
fn bulk_built_graphs() {
    for (name, edges) in [
        ("rmat", rmat_edges(7, 400, 1)),
        ("star", star()),
        ("path", path()),
        ("disconnected", disconnected()),
        ("self-loops", with_loops()),
    ] {
        check(&Case::bulk(name, &edges));
    }
}

#[test]
fn edit_built_graphs_whose_slot_order_is_not_id_order() {
    for (seed, (name, edges)) in [
        ("rmat", rmat_edges(7, 400, 2)),
        ("star", star()),
        ("disconnected", disconnected()),
        ("self-loops", with_loops()),
    ]
    .into_iter()
    .enumerate()
    {
        let case = Case::edited(name, &edges, &[-3, 999, i64::MIN], seed as u64);
        let slot_ids: Vec<NodeId> = (0..case.g.n_slots())
            .filter_map(|s| case.g.slot_id(s))
            .collect();
        assert!(!slot_ids.is_sorted(), "{name}: slot order is not id order");
        check(&case);
    }
}

#[test]
fn vacant_and_reused_slots() {
    for (seed, edges) in [rmat_edges(7, 400, 3), with_loops()]
        .into_iter()
        .enumerate()
    {
        check(&Case::bulk("bulk", &edges).holes(seed as u64));
        check(&Case::edited("edited", &edges, &[5_000], 10 + seed as u64).holes(seed as u64));
    }
}

#[test]
fn the_last_version_of_a_publish_chain() {
    check(&Case::bulk("rmat", &rmat_edges(7, 400, 4)).chain(5));
    check(&Case::edited("self-loops", &with_loops(), &[], 6).chain(7));
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One `(id, score)` pair, the score by its bits.
    fn score(&mut self, v: NodeId, x: f64) {
        self.add(id(v));
        self.add(x.to_bits());
    }
}

fn id<T: Borrow<i64>>(v: T) -> u64 {
    *v.borrow() as u64
}

/// One `(id, score)` column, every score by its bits.
fn digest_of(column: &NodeValues<f64>) -> u64 {
    let mut d = Digest::new();
    for (v, &s) in column.iter() {
        d.score(v, s);
    }
    d.0
}

/// Kernel outputs on `g` and `u`, one digest per kernel, in output order.
fn digests(g: &DirectedGraph, u: &UndirectedGraph, threads: usize) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    let cfg = PageRankConfig {
        iterations: 10,
        threads,
        ..PageRankConfig::default()
    };
    out.push(("pagerank", digest_of(&pagerank(g, &cfg))));
    let hub = g
        .node_ids()
        .max_by_key(|&v| (g.out_degree(v), std::cmp::Reverse(v)))
        .expect("non-empty");
    for (name, dir) in [
        ("bfs_out", Direction::Out),
        ("bfs_in", Direction::In),
        ("bfs_both", Direction::Both),
    ] {
        let mut d = Digest::new();
        for (v, &x) in FrontierEngine::with_threads(g, dir, threads)
            .distances(hub)
            .iter()
        {
            d.add(id(v));
            d.add(u64::from(x));
        }
        out.push((name, d.0));
    }
    let mut d = Digest::new();
    for (v, &p) in FrontierEngine::with_threads(g, Direction::Out, threads)
        .tree(hub)
        .iter()
    {
        d.add(id(v));
        d.add(id(p));
    }
    out.push(("bfs_tree", d.0));
    let mut d = Digest::new();
    for (v, &x) in sssp_unweighted(g, hub, Direction::Out).iter() {
        d.add(id(v));
        d.add(u64::from(x));
    }
    out.push(("sssp", d.0));
    for (name, c) in [
        ("wcc", weakly_connected_components(g)),
        ("scc", strongly_connected_components(g)),
    ] {
        let mut d = Digest::new();
        for (v, &l) in c.comp_of.iter() {
            d.add(id(v));
            d.add(u64::from(l));
        }
        c.sizes.iter().for_each(|&s| d.add(s as u64));
        out.push((name, d.0));
    }
    let mut d = Digest::new();
    for (v, &c) in core_numbers(u).iter() {
        d.add(id(v));
        d.add(u64::from(c));
    }
    out.push(("core_numbers", d.0));
    let mut d = Digest::new();
    d.add(count_triangles(u, threads));
    for (v, &c) in node_triangles(u, threads).iter() {
        d.add(id(v));
        d.add(c);
    }
    out.push(("triangles", d.0));
    let mut d = Digest::new();
    let core = k_core(u, 3);
    d.add(core.edge_count() as u64);
    for v in core.node_ids() {
        d.add(id(v));
        for w in core.nbrs(v) {
            d.add(id(w));
        }
    }
    out.push(("k_core", d.0));
    let second = g.node_ids().nth(1).expect("two nodes");
    let ppr = personalized_pagerank(g, &[hub, second], &cfg);
    out.push(("ppr", digest_of(&ppr)));
    let weighted_pr = pagerank_weighted(&weighted(g), &cfg);
    out.push(("pagerank_weighted", digest_of(&weighted_pr)));
    out.push(("hits", hits_digest(&hits(g, 10, threads))));
    let ev = eigenvector_centrality(g, 30, 1e-10, threads);
    out.push(("eigenvector", digest_of(&ev)));
    let mut d = Digest::new();
    for dir in [Direction::Out, Direction::In, Direction::Both] {
        for (v, &s) in degree_centrality(g, dir).iter() {
            d.score(v, s);
        }
    }
    out.push(("degree_centrality", d.0));
    let bc = betweenness_centrality_sampled(g, 64, true, threads);
    out.push(("betweenness", digest_of(&bc)));
    out
}

/// One HITS column: each node's hub, then its authority, by their bits.
fn hits_digest(scores: &NodeValues<HitsScores>) -> u64 {
    let mut d = Digest::new();
    for (v, s) in scores.iter() {
        d.score(v, s.hub);
        d.add(s.authority.to_bits());
    }
    d.0
}

/// `g` with [`weight`] on every edge.
fn weighted(g: &DirectedGraph) -> WeightedDigraph {
    let mut w = WeightedDigraph::new();
    for v in g.node_ids() {
        w.add_node(v);
    }
    for (a, b) in g.edges() {
        w.add_edge(a, b, weight(a, b));
    }
    w
}

/// One input's pinned digests, by kernel name.
type Pinned<'a> = (&'a [Edge], [(&'static str, u64); 17]);

/// Recorded by running [`digests`] at one thread on the same inputs: the
/// first eleven with the graph storing neighbour ids and kernels reading a
/// cached slot copy, the last six before the iterative kernels shared one
/// sweep and returned columns. Every output must be the same at every
/// thread count.
#[test]
fn table_built_outputs_are_bit_identical_to_the_id_valued_storage() {
    let edges = rmat_edges(12, 30_000, 11);
    // Both signs: the conversion sorts in `u128` words.
    let wide: Vec<Edge> = edges
        .iter()
        .map(|&(s, d)| (s * 1_000_003 - 2_000_000_000, d * 1_000_003 - 2_000_000_000))
        .collect();
    let pinned: [Pinned; 2] = [
        (
            &edges,
            [
                ("pagerank", 0xe44f479d63d7475c),
                ("bfs_out", 0x16e421ac4cae26bb),
                ("bfs_in", 0xaff69b7b54287942),
                ("bfs_both", 0x259cc8c636e51bfa),
                ("bfs_tree", 0xb302dfaaabdb7ac5),
                ("sssp", 0x16e421ac4cae26bb),
                ("wcc", 0xc460c2e4e6038e90),
                ("scc", 0x683b54c7c6ec7ee0),
                ("core_numbers", 0x735a6c9c5b0f3138),
                ("triangles", 0x28830b76af200014),
                ("k_core", 0x521aed4509462ffe),
                ("ppr", 0x346b5f11147e3143),
                ("pagerank_weighted", 0xce40a8071443133f),
                ("hits", 0x75bf34b48ef709db),
                ("eigenvector", 0x87522d82498806a3),
                ("degree_centrality", 0xc0f282fc4b74728f),
                ("betweenness", 0xd38186e054fdfd7c),
            ],
        ),
        (
            &wide,
            [
                ("pagerank", 0x5595354a6151d35a),
                ("bfs_out", 0x2d23530454800702),
                ("bfs_in", 0xdbb8e78d61d19f51),
                ("bfs_both", 0xaff94c07701b736a),
                ("bfs_tree", 0xd324882d5d989c76),
                ("sssp", 0x2d23530454800702),
                ("wcc", 0x050bdf2c54e0ca82),
                ("scc", 0x4f1f58b8e2574b6e),
                ("core_numbers", 0x37e66f52d10cb212),
                ("triangles", 0x5b8ad6499134c32e),
                ("k_core", 0xce54390c90ffcdaf),
                ("ppr", 0x8e04dd6459c2a389),
                ("pagerank_weighted", 0x574b1beeefdc19ce),
                ("hits", 0x8c55b2b850ce3c59),
                ("eigenvector", 0xd95b6bad76083e7d),
                ("degree_centrality", 0x587642ccea1c8541),
                ("betweenness", 0x36f445e13d719f06),
            ],
        ),
    ];
    for (edges, kernels) in pinned {
        let t = edges_to_table(edges);
        let g = ringo::convert::table_to_graph(&t, "src", "dst").unwrap();
        let u = ringo::convert::table_to_undirected(&t, "src", "dst").unwrap();
        for threads in [1usize, 2, 4] {
            let got: BTreeMap<&str, u64> = digests(&g, &u, threads).into_iter().collect();
            assert_eq!(got.len(), kernels.len());
            for (name, want) in kernels {
                assert_eq!(got[name], want, "{name} at {threads} threads");
            }
        }
    }
}

/// Every score kernel that takes a thread count returns the same bits at
/// 1, 2, 3, 4 and 8 threads, on a graph of more than 64Ki slots; exact
/// betweenness, `O(V * E)`, on a smaller one. (The per-node triangle
/// counts under the clustering coefficients are checked at 1, 2 and 8
/// threads in `tests/triangles.rs`.)
#[test]
fn score_kernels_are_bit_identical_at_any_thread_count() {
    // Milder skew than the default: more slots for the edges.
    let t = edges_to_table(&rmat(&RmatConfig {
        scale: 17,
        edges: 100_000,
        a: 0.4,
        b: 0.2,
        c: 0.2,
        seed: 12,
    }));
    let g = ringo::convert::table_to_graph(&t, "src", "dst").unwrap();
    let u = ringo::convert::table_to_undirected(&t, "src", "dst").unwrap();
    assert!(g.n_slots() > 1 << 16, "{} slots", g.n_slots());
    let w = weighted(&g);
    let seeds: Vec<NodeId> = g.node_ids().step_by(997).collect();
    let small = Case::bulk("rmat", &rmat_edges(9, 2_000, 13)).g;
    // A few iterations suffice: a sum split by thread count differs in
    // the first.
    let run = |threads: usize| {
        let cfg = PageRankConfig {
            iterations: 3,
            threads,
            ..PageRankConfig::default()
        };
        [
            digest_of(&pagerank(&g, &cfg)),
            digest_of(&personalized_pagerank(&g, &seeds, &cfg)),
            digest_of(&pagerank_weighted(&w, &cfg)),
            hits_digest(&hits(&g, 3, threads)),
            digest_of(&eigenvector_centrality(&g, 3, 0.0, threads)),
            digest_of(&node_clustering(&u, threads)),
            digest_of(&betweenness_centrality_sampled(&g, 4, true, threads)),
            digest_of(&betweenness_centrality(&small, true, threads)),
        ]
    };
    let want = run(1);
    for threads in [2, 3, 4, 8] {
        assert_eq!(run(threads), want, "at {threads} threads");
    }
}

/// A tolerance no L1 change can reach stops every PageRank variant after
/// its first iteration.
#[test]
fn an_infinite_tolerance_stops_every_pagerank_after_one_iteration() {
    let g = Case::bulk("rmat", &rmat_edges(10, 5_000, 14)).g;
    let w = weighted(&g);
    let seeds: Vec<NodeId> = g.node_ids().step_by(50).collect();
    let one = PageRankConfig {
        iterations: 1,
        threads: 2,
        ..PageRankConfig::default()
    };
    let early = PageRankConfig {
        iterations: 50,
        tolerance: Some(f64::INFINITY),
        ..one
    };
    let run = |c: &PageRankConfig| {
        [
            digest_of(&pagerank(&g, c)),
            digest_of(&personalized_pagerank(&g, &seeds, c)),
            digest_of(&pagerank_weighted(&w, c)),
        ]
    };
    assert_eq!(run(&early), run(&one));
}
