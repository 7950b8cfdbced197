//! Traversal smoke: a BFS over an R-MAT graph big enough to exercise
//! both frontier phases, for CI trace assertions.
//!
//! Run with `RINGO_THREADS=4 RINGO_TRACE=1 RINGO_TRACE_JSON=out.json \
//! cargo run --release --example traversal_smoke`. CI checks the dumped
//! trace for `algo.bfs.topdown` *and* `algo.bfs.bottomup` spans, so a
//! refactor that silently stops direction-optimizing fails the build,
//! for the `convert.fill.rank` span of the conversion that wrote the
//! graph's rows of neighbour slots, and for a positive
//! `algo.bfs.edges_scanned` count.
//! The example itself pins the graph's `mem_size()` (4 bytes a stored
//! neighbour plus the id index and 16 bytes a node: a second copy of the
//! rows, wider ones, or a wider node side moves it), a distance checksum and a BFS-tree checksum (parents
//! are derived from the distances after the run, so this is the path
//! that exercises it) and cross-checks the forced top-down / forced
//! bottom-up extremes against the default crossover — the engine's
//! determinism contract, asserted end to end.

use ringo::algo::{bfs_distances, bfs_tree, FrontierEngine};
use ringo::concurrent::num_threads;
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{Direction, Ringo};

/// FNV-1a over `(id, value)` pairs in id order — stable across thread
/// counts because distances are set-determined and parents follow from
/// them.
fn checksum(pairs: impl Iterator<Item = (i64, u64)>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (id, v) in pairs {
        for b in (id as u64).to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = ringo::trace::init_from_env();
    let ringo = Ringo::new();

    let edges = rmat(&RmatConfig {
        scale: 15,
        edges: 300_000,
        seed: 7,
        ..Default::default()
    });
    let table = edges_to_table(&edges);
    let g = ringo.to_graph(&table, "src", "dst")?;
    println!("traversal smoke: graph mem_size {} B", g.mem_size());
    // 21,654 nodes and 277,224 edges: the id index (32,768 table slots at
    // 16 B), 8 B of id a node, one 4-byte offset a node (plus the closing
    // one) per orientation, and 4 B a stored neighbour, twice an edge:
    // 524,288 + 173,232 + 2 × 86,620 + 2,217,792. The node table of
    // 64 B a slot this replaced made it 4,127,936.
    const PINNED_BYTES: usize = 3_088_552;
    assert_eq!(g.mem_size(), PINNED_BYTES, "graph footprint drifted");

    // Deterministic source: the highest out-degree hub (smallest id wins
    // ties), whose first frontier is fat enough to flip bottom-up early.
    let hub = g
        .node_ids()
        .max_by_key(|&v| (g.out_degree(v).unwrap_or(0), std::cmp::Reverse(v)))
        .expect("graph is non-empty");

    let dist = bfs_distances(&g, hub, Direction::Out);
    let mut pairs: Vec<(i64, u64)> = dist.iter().map(|(id, &d)| (id, u64::from(d))).collect();
    pairs.sort_unstable();
    let sum = checksum(pairs.iter().copied());
    println!(
        "traversal smoke: {} nodes, hub {hub} reaches {} nodes, checksum {sum:#018x}",
        g.node_count(),
        pairs.len()
    );

    // The same traversal at both forced extremes must be bit-identical.
    let threads = num_threads();
    for (name, alpha, beta) in [("top-down", 0, 0), ("bottom-up", u64::MAX, u64::MAX)] {
        let eng = FrontierEngine::with_params(&g, Direction::Out, threads, alpha, beta);
        let state = eng.run(hub).expect("hub exists");
        let mut forced: Vec<(i64, u64)> = state
            .visited
            .iter()
            .map(|&s| {
                (
                    g.slot_id(s as usize).unwrap(),
                    u64::from(state.dist[s as usize]),
                )
            })
            .collect();
        forced.sort_unstable();
        assert_eq!(
            checksum(forced.into_iter()),
            sum,
            "forced {name} traversal diverged from the default crossover"
        );
    }

    // Pinned on the seeded scale-15 R-MAT above: any drift means the
    // traversal (or the generator) changed results, not just speed.
    const PINNED: u64 = 0xe7f2_1389_fc12_b3ef;
    assert_eq!(sum, PINNED, "distance checksum drifted");

    // The tree from the same hub: (id, parent) pairs, the minimum-slot
    // predecessor one level up.
    let tree = bfs_tree(&g, hub, Direction::Out);
    let mut edges: Vec<(i64, u64)> = tree.iter().map(|(id, &p)| (id, p as u64)).collect();
    edges.sort_unstable();
    let tree_sum = checksum(edges.into_iter());
    println!("traversal smoke: tree checksum {tree_sum:#018x}");
    const PINNED_TREE: u64 = 0xfacb_e25a_8372_c062;
    assert_eq!(tree_sum, PINNED_TREE, "tree checksum drifted");
    println!("traversal smoke OK: checksums match pinned values");
    Ok(())
}
