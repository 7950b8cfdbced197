//! Property tests for the shared parallel frontier engine: the
//! direction-optimizing parallel BFS must be indistinguishable from a
//! textbook sequential BFS — identical distances at every thread count
//! and at both forced crossover extremes (always top-down, always
//! bottom-up) — and `bfs_tree`'s parents, derived from those distances,
//! must be valid and deterministic.

use ringo::algo::{bfs_tree, FrontierEngine, FrontierState, UNVISITED};
use ringo::gen::{edges_to_table, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{DirectedGraph, Direction, NodeId, NodeValues};
use std::collections::{BTreeMap, VecDeque};

fn rmat_graph(scale: u32, edges: usize, seed: u64) -> DirectedGraph {
    let e = ringo::gen::rmat(&RmatConfig {
        scale,
        edges,
        seed,
        ..Default::default()
    });
    ringo::convert::table_to_graph(&edges_to_table(&e), "src", "dst").unwrap()
}

fn star(leaves: i64) -> DirectedGraph {
    let mut g = DirectedGraph::new();
    for i in 1..=leaves {
        g.add_edge(0, i);
    }
    g
}

fn path(len: i64) -> DirectedGraph {
    let mut g = DirectedGraph::new();
    for i in 0..len {
        g.add_edge(i, i + 1);
    }
    g
}

fn disconnected() -> DirectedGraph {
    let mut g = DirectedGraph::new();
    for i in 0..40 {
        g.add_edge(i, (i + 1) % 40); // cycle component
    }
    for i in 100..140 {
        g.add_edge(i, i + 1); // path component
    }
    g.add_node(999); // isolated
    g
}

/// Textbook queue-based BFS over ids — an oracle independent of the
/// engine's morsel/claim machinery.
fn ref_dist(g: &DirectedGraph, src: NodeId, dir: Direction) -> Vec<(NodeId, u32)> {
    let mut out = Vec::new();
    if !g.has_node(src) {
        return out;
    }
    let mut dist = std::collections::HashMap::new();
    let mut q = VecDeque::new();
    dist.insert(src, 0u32);
    q.push_back(src);
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
    out.extend(dist);
    out.sort_unstable();
    out
}

/// Distances of a finished engine run as sorted `(id, dist)` pairs.
fn engine_dist(g: &DirectedGraph, state: &FrontierState) -> Vec<(NodeId, u32)> {
    let mut out: Vec<(NodeId, u32)> = state
        .visited
        .iter()
        .map(|&s| (g.slot_id(s as usize).unwrap(), state.dist[s as usize]))
        .collect();
    out.sort_unstable();
    out
}

/// Structural checks on a BFS tree against the reference distances: the
/// source is its own parent, every other parent is one level shallower,
/// connected by a real edge in the traversal sense, and minimal by slot
/// among all such predecessors (the documented deterministic tie-break).
fn assert_parents_valid(
    g: &DirectedGraph,
    tree: &NodeValues<NodeId>,
    dist: &[(NodeId, u32)],
    src: NodeId,
    dir: Direction,
) {
    let dist: BTreeMap<NodeId, u32> = dist.iter().copied().collect();
    assert_eq!(tree.len(), dist.len(), "the tree spans the reached nodes");
    for (v, &p) in tree.iter() {
        let d = dist[&v];
        if v == src {
            assert_eq!(d, 0);
            assert_eq!(p, v, "source is its own parent");
            continue;
        }
        assert_eq!(
            dist.get(&p),
            Some(&(d - 1)),
            "parent of {v} sits one level up"
        );
        // Predecessors of v in traversal sense `dir` are the nodes u with
        // an edge u -> v, i.e. v's *reverse* adjacency.
        let preds: Vec<NodeId> = match dir {
            Direction::Out => g.in_nbrs(v).collect(),
            Direction::In => g.out_nbrs(v).collect(),
            Direction::Both => g.in_nbrs(v).chain(g.out_nbrs(v)).collect(),
        };
        assert!(preds.contains(&p), "parent edge exists");
        let slot = |u: NodeId| DirectedTopology::slot_of(g, u).unwrap();
        let min_pred = preds
            .iter()
            .copied()
            .filter(|u| dist.get(u) == Some(&(d - 1)))
            .min_by_key(|&u| slot(u))
            .unwrap();
        assert_eq!(p, min_pred, "minimum-slot predecessor wins");
    }
}

/// Levels bucket check: `level_starts` partitions `visited` by distance.
fn assert_levels_consistent(state: &FrontierState) {
    assert_eq!(state.level_starts.len() as u32, state.levels + 1);
    for l in 0..state.levels as usize {
        let (lo, hi) = (
            state.level_starts[l] as usize,
            state.level_starts[l + 1] as usize,
        );
        assert!(lo < hi, "no empty BFS level");
        for &s in &state.visited[lo..hi] {
            assert_eq!(state.dist[s as usize], l as u32);
        }
    }
}

/// Thread counts and (alpha, beta) extremes every property is checked
/// under: defaults, forced top-down, forced bottom-up.
const THREADS: [usize; 4] = [1, 2, 4, 8];
const KNOBS: [(u64, u64); 3] = [(15, 18), (0, 0), (u64::MAX, u64::MAX)];

fn check_graph(g: &DirectedGraph, sources: &[NodeId], dirs: &[Direction]) {
    for &dir in dirs {
        for &src in sources {
            let expect = ref_dist(g, src, dir);
            let tree = bfs_tree(g, src, dir);
            assert_parents_valid(g, &tree, &expect, src, dir);
            for threads in THREADS {
                for (alpha, beta) in KNOBS {
                    let eng = FrontierEngine::with_params(g, dir, threads, alpha, beta);
                    let state = eng.run(src).expect("source exists");
                    assert_eq!(
                        engine_dist(g, &state),
                        expect,
                        "dist mismatch: t={threads} a={alpha} b={beta} src={src} dir={dir:?}"
                    );
                    assert_levels_consistent(&state);
                    assert_eq!(
                        eng.tree(src),
                        tree,
                        "tree at t={threads} a={alpha} b={beta}"
                    );
                }
            }
        }
    }
}

#[test]
fn rmat_graphs_match_reference_at_all_thread_counts_and_extremes() {
    for seed in [3, 17] {
        let g = rmat_graph(9, 6_000, seed);
        let src = g.node_ids().next().unwrap();
        check_graph(&g, &[src], &[Direction::Out, Direction::Both]);
    }
}

#[test]
fn star_graph_single_giant_level() {
    let g = star(5_000);
    check_graph(&g, &[0], &[Direction::Out, Direction::Both]);
    // From a leaf, Out reaches nothing; In climbs to the hub.
    check_graph(&g, &[17], &[Direction::Out, Direction::In, Direction::Both]);
}

#[test]
fn path_graph_many_tiny_levels() {
    let g = path(3_000);
    check_graph(&g, &[0, 1500], &[Direction::Out, Direction::In]);
}

#[test]
fn disconnected_graph_stays_in_its_component() {
    let g = disconnected();
    check_graph(&g, &[0, 100, 999], &[Direction::Out, Direction::Both]);
    let eng = FrontierEngine::new(&g, Direction::Out);
    let state = eng.run(999).unwrap();
    assert_eq!(state.visited.len(), 1, "isolated node reaches only itself");
    assert!(eng.run(424_242).is_none(), "missing source");
}

#[test]
fn forced_modes_agree_bit_for_bit_with_defaults() {
    // Same run under every knob setting must produce *identical* flat
    // arrays, not merely equivalent tables — the determinism contract.
    let g = rmat_graph(10, 12_000, 7);
    let src = g.node_ids().next().unwrap();
    let baseline = FrontierEngine::with_params(&g, Direction::Out, 1, 0, 0)
        .run(src)
        .unwrap();
    for threads in THREADS {
        for (alpha, beta) in KNOBS {
            let state = FrontierEngine::with_params(&g, Direction::Out, threads, alpha, beta)
                .run(src)
                .unwrap();
            assert_eq!(state.dist, baseline.dist);
            assert_eq!(state.levels, baseline.levels);
        }
    }
}

#[test]
fn state_reuse_across_components_walls_off_prior_runs() {
    let g = disconnected();
    let eng = FrontierEngine::new(&g, Direction::Both);
    let mut state = FrontierState::new(g.n_slots());
    let s0 = DirectedTopology::slot_of(&g, 0).unwrap();
    let s1 = DirectedTopology::slot_of(&g, 100).unwrap();
    eng.run_into(s0, &mut state);
    let first = state.visited.len();
    assert_eq!(first, 40);
    eng.run_into(s1, &mut state);
    assert_eq!(state.visited.len() - first, 41);
    // No slot claimed twice.
    let mut seen = state.visited.clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), state.visited.len());
    // Reset clears only what was touched.
    state.reset();
    assert!(state.visited.is_empty());
    assert!(state.dist.iter().all(|&d| d == UNVISITED));
}
