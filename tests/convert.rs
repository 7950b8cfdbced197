//! Table → graph against row-at-a-time references, slot for slot.
//!
//! The sort-first conversion packs edge pairs into one key word each — a
//! `u64` when the ids' varying bits fit it, a `u128` otherwise — sorts
//! them and fills shared slabs of neighbour slots from the sorted keys,
//! ranking each neighbour among the node ids through a bucket array.
//! Whatever word it sorted in, however the ids spread over the buckets
//! and however many workers shared the fill, the graph must be the one
//! the naive builders make — node `k` in slot `k` by ascending id, every
//! row sorted and deduplicated — at threads 1, 2 and 4, on every shape of
//! input that picks a different path through the sorter: short and long,
//! `u64` and `u128`, sorted and not, one key or none. The second
//! orientation is a counting transpose of the first slab, so the inputs
//! also cover what it meets: a sink whose in-row is far longer than one
//! worker's share, ids that are never a key's first (below, between and
//! above the others), and nodes whose every neighbour is smaller.

use ringo::concurrent::radix::SEQ_THRESHOLD;
use ringo::concurrent::{radix_sort_columns, SortedPairs};
use ringo::convert::{
    table_to_graph, table_to_graph_naive, table_to_graph_threads, table_to_undirected,
    table_to_undirected_threads,
};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{DirectedGraph, NodeId, UndirectedGraph};
use ringo_rng::Rng64;
use std::collections::{BTreeMap, BTreeSet};

type Edge = (NodeId, NodeId);

/// The ids a row of slots names, in row order.
fn ids<G: DirectedTopology>(g: &G, row: &[u32]) -> Vec<NodeId> {
    row.iter()
        .map(|&t| g.slot_id(t as usize).expect("a row names live slots"))
        .collect()
}

/// Every slot's id, in-list and out-list.
fn directed_layout(g: &DirectedGraph) -> Vec<(Option<NodeId>, Vec<NodeId>, Vec<NodeId>)> {
    (0..g.n_slots())
        .map(|s| (g.slot_id(s), ids(g, g.in_row(s)), ids(g, g.out_row(s))))
        .collect()
}

/// Every slot's id and list.
fn undirected_layout(g: &UndirectedGraph) -> Vec<(Option<NodeId>, Vec<NodeId>)> {
    (0..g.n_slots())
        .map(|s| (g.slot_id(s), ids(g, g.out_row(s))))
        .collect()
}

/// [`check_paths`] for input that sorts in the same word either way.
fn check(edges: &[Edge], packs: bool, what: &str) {
    check_paths(edges, packs, packs, what);
}

/// Converts `edges` both ways at threads 1, 2 and 4 and compares each
/// result with its reference. `packs` / `symmetric_packs` say whether the
/// directed `(src, dst)` and the undirected `(min, max)` sort must have
/// used a `u64` word (else a `u128`), so a case meant for the wide word
/// cannot quietly fit the narrow one.
fn check_paths(edges: &[Edge], packs: bool, symmetric_packs: bool, what: &str) {
    let mut table = edges_to_table(edges);
    let (src, dst) = (table.int_col("src").unwrap(), table.int_col("dst").unwrap());
    for (canonical, want) in [(false, packs), (true, symmetric_packs)] {
        let narrow = match radix_sort_columns(src, dst, [None, None], canonical, 2) {
            SortedPairs::U64(..) => true,
            SortedPairs::U128(..) => false,
        };
        assert_eq!(narrow, want, "{what}: canonical={canonical} u64");
    }

    // Directed reference: the naive builder's lists, in ascending id order.
    let naive = table_to_graph_naive(&table, "src", "dst").unwrap();
    let ids: BTreeSet<NodeId> = naive.node_ids().collect();
    let want_directed: Vec<_> = ids
        .iter()
        .map(|&id| {
            (
                Some(id),
                naive.in_nbrs(id).collect(),
                naive.out_nbrs(id).collect(),
            )
        })
        .collect();

    // Undirected reference: plain std sets.
    let mut adj: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
    for &(s, d) in edges {
        adj.entry(s).or_default().insert(d);
        adj.entry(d).or_default().insert(s);
    }
    let undirected_edges = adj
        .iter()
        .map(|(&id, nbrs)| nbrs.iter().filter(|&&n| n >= id).count())
        .sum::<usize>();
    let want_undirected: Vec<_> = adj
        .into_iter()
        .map(|(id, nbrs)| (Some(id), nbrs.into_iter().collect::<Vec<_>>()))
        .collect();

    for threads in [1usize, 2, 4] {
        let ctx = format!("{what}: threads={threads}");
        table.set_threads(threads);
        let g = table_to_graph(&table, "src", "dst").unwrap();
        assert_eq!(directed_layout(&g), want_directed, "{ctx}");
        assert_eq!(g.node_count(), naive.node_count(), "{ctx}");
        assert_eq!(g.edge_count(), naive.edge_count(), "{ctx}");
        for &id in &ids {
            assert_eq!(g.out_nbrs(id), naive.out_nbrs(id), "{ctx}: lookup of {id}");
        }

        let u = table_to_undirected(&table, "src", "dst").unwrap();
        assert_eq!(undirected_layout(&u), want_undirected, "{ctx}");
        assert_eq!(u.node_count(), want_undirected.len(), "{ctx}");
        assert_eq!(u.edge_count(), undirected_edges, "{ctx}");

        // The explicit thread count wins over the table's.
        table.set_threads(1);
        let g2 = table_to_graph_threads(&table, "src", "dst", threads).unwrap();
        assert_eq!(directed_layout(&g2), want_directed, "{ctx}: explicit");
        let u2 = table_to_undirected_threads(&table, "src", "dst", threads).unwrap();
        assert_eq!(undirected_layout(&u2), want_undirected, "{ctx}: explicit");
    }
}

fn random_edges(rng: &mut Rng64, n: usize, ids: std::ops::Range<i64>) -> Vec<Edge> {
    (0..n)
        .map(|_| (rng.range_i64(ids.clone()), rng.range_i64(ids.clone())))
        .collect()
}

const LONG: usize = 3 * SEQ_THRESHOLD;

#[test]
fn narrow_ids() {
    let edges = rmat(&RmatConfig {
        scale: 10,
        edges: LONG,
        ..Default::default()
    });
    check(&edges, true, "rmat");
    check(&edges[..100], true, "rmat, short");
}

#[test]
fn negative_and_extreme_ids() {
    let mut rng = Rng64::new(1);
    check(&random_edges(&mut rng, LONG, -900..-3), true, "negative");
    let top = i64::MAX - 700..i64::MAX;
    let mut at_max = random_edges(&mut rng, LONG, top.clone());
    at_max.push((i64::MAX, i64::MAX - 1));
    at_max.push((i64::MAX - 2, i64::MAX));
    check(&at_max, true, "at i64::MAX");
    let mut low = random_edges(&mut rng, LONG, i64::MIN + 1..i64::MIN + 600);
    low.push((i64::MIN + 1, i64::MIN + 2));
    check(&low, true, "just above i64::MIN");
    check(&at_max[LONG - 50..], true, "at i64::MAX, short");
}

#[test]
fn wide_ids_sort_in_u128_words() {
    let mut rng = Rng64::new(2);
    // Either sign: every bit of the biased key varies, 128 in all.
    check(
        &random_edges(&mut rng, LONG, -500..500),
        false,
        "mixed signs",
    );
    let full = random_edges(&mut rng, LONG, i64::MIN + 1..i64::MAX);
    check(&full, false, "full range");
    check(&full[..200], false, "full range, short");
    // A 40-bit column and a 10-bit one in its middle fit a u64 as they
    // stand; as `(min, max)` each side takes values from both, so both
    // spans are ≈40 bits.
    let middle = 1i64 << 39;
    let straddled: Vec<Edge> = (0..LONG)
        .map(|_| {
            (
                rng.range_i64(0..1 << 40),
                rng.range_i64(middle..middle + 1024),
            )
        })
        .collect();
    check_paths(&straddled, true, false, "40 bits and 10 bits");
    check_paths(&straddled[..300], true, false, "40 bits and 10 bits, short");
    // Wide on one side only still fits a u64, with no bit to spare; as
    // `(min, max)` the negative ids go first, so both spans are wide.
    let one_source: Vec<Edge> = full.iter().map(|&(_, d)| (7, d)).collect();
    check_paths(&one_source, true, false, "0 bits and 64 bits");
}

#[test]
fn a_span_the_sample_missed_is_recounted() {
    let mut rng = Rng64::new(3);
    let mut edges = random_edges(&mut rng, LONG, 0..300);
    // The strided sample reads rows 0, step, 2·step, …; row 1 is not one.
    edges[1] = (1 << 30, 5);
    check(&edges, true, "one outlier off the sample");
    // An outlier of the other sign: the recount moves to a u128 word.
    edges[1] = (-5, 5);
    check(&edges, false, "one negative id off the sample");
}

#[test]
fn duplicates_and_self_loops() {
    check(&vec![(7, 9); LONG], true, "one edge, many times");
    check(&vec![(3, 3); LONG], true, "one self-loop, many times");
    let mut rng = Rng64::new(4);
    let loops: Vec<Edge> = (0..LONG)
        .map(|_| {
            let v = rng.range_i64(-40..900);
            (v, v)
        })
        .collect();
    check(&loops, false, "self-loops only, either sign");
    let loops: Vec<Edge> = loops.iter().map(|&(v, _)| (v + 40, v + 40)).collect();
    check(&loops, true, "self-loops only");
}

#[test]
fn sorted_and_reverse_sorted_input() {
    let mut rng = Rng64::new(5);
    let mut edges = random_edges(&mut rng, LONG, 0..200);
    edges.sort_unstable();
    check(&edges, true, "ascending");
    edges.reverse();
    check(&edges, true, "descending");
    edges.dedup();
    check(&edges, true, "strictly descending");
    let mut wide = random_edges(&mut rng, LONG, -200..200);
    wide.sort_unstable();
    check(&wide, false, "ascending, wide");
}

#[test]
fn empty_and_threshold_lengths() {
    check(&[], true, "empty");
    check(&[(5, 5)], true, "one self-loop");
    check(&[(2, 1)], true, "one edge");
    let mut rng = Rng64::new(6);
    for len in [SEQ_THRESHOLD - 1, SEQ_THRESHOLD, SEQ_THRESHOLD + 1] {
        let edges = random_edges(&mut rng, len, 0..5_000);
        check(&edges, true, &format!("len={len}"));
    }
}

#[test]
fn two_clusters_of_ids_far_apart() {
    // Every bucket of the rank index but two or three is empty: the
    // search inside a bucket is the long side of the rank.
    let mut rng = Rng64::new(8);
    let far = 1i64 << 50;
    let mut edges = random_edges(&mut rng, LONG, 0..400);
    for e in edges.iter_mut().step_by(2) {
        e.1 += far;
    }
    edges.extend(random_edges(&mut rng, LONG / 2, far..far + 400));
    check(&edges, false, "two clusters 2^50 apart");
}

/// `i64::MIN` is an id like any other: a column holding it converts, on
/// either side, short or long, at every thread count.
#[test]
fn i64_min_converts_like_any_id() {
    let mut rng = Rng64::new(7);
    for len in [3usize, LONG] {
        for (at_src, at_dst) in [(true, false), (false, true), (true, true)] {
            let mut edges = random_edges(&mut rng, len, -50..i64::MAX);
            if at_src {
                edges[len / 2].0 = i64::MIN;
            }
            if at_dst {
                edges[len / 3].1 = i64::MIN;
            }
            check(
                &edges,
                false,
                &format!("len={len} src={at_src} dst={at_dst}"),
            );
        }
    }
}

/// A sink whose in-row is far longer than one worker's share of the
/// entries, between ids that are heads: its in-row is filled by every
/// worker at once and sorted after.
#[test]
fn a_sink_hub_takes_most_edges() {
    let mut rng = Rng64::new(10);
    let hub = 5_000;
    let mut edges: Vec<Edge> = (0..LONG as i64)
        .filter(|&s| s != hub)
        .map(|s| (s, hub))
        .collect();
    edges.extend(random_edges(&mut rng, LONG / 8, 0..hub));
    edges.extend(random_edges(&mut rng, LONG / 8, hub + 1..LONG as i64));
    rng.shuffle(&mut edges);
    check(&edges, true, "sink hub");
    check(&edges[..200], true, "sink hub, short");
}

/// A star whose centre is the largest id and only ever a destination:
/// the one second-only id comes after every head, and as `(min, max)`
/// its whole row is transposed entries.
#[test]
fn a_star_around_the_largest_id() {
    let centre = 1 << 20;
    let edges: Vec<Edge> = (0..LONG as i64).map(|leaf| (leaf, centre)).collect();
    check(&edges, true, "star into the largest id");
    let mut rng = Rng64::new(11);
    let mut mixed = edges.clone();
    mixed.extend(random_edges(&mut rng, LONG, 0..LONG as i64));
    rng.shuffle(&mut mixed);
    check(&mixed, true, "star into the largest id, among random edges");
}

/// A path walked downwards: every directed node's neighbour is smaller,
/// and every undirected node is its upper neighbour's second id.
#[test]
fn a_descending_path() {
    let edges: Vec<Edge> = (0..LONG as i64).rev().map(|i| (i + 1, i)).collect();
    check(&edges, true, "descending path");
    let wide: Vec<Edge> = edges.iter().map(|&(a, b)| (a - 2_000, b - 2_000)).collect();
    check(&wide, false, "descending path through zero");
}

/// Every destination is never a source: half the nodes are second-only
/// ids, interleaved with the heads, above them, or below them.
#[test]
fn only_second_ids_on_the_destination_side() {
    let mut rng = Rng64::new(12);
    let pick = |rng: &mut Rng64, even: bool| 2 * rng.range_i64(0..3_000) + i64::from(!even);
    let interleaved: Vec<Edge> = (0..LONG)
        .map(|_| (pick(&mut rng, true), pick(&mut rng, false)))
        .collect();
    check(&interleaved, true, "sources even, destinations odd");
    let above: Vec<Edge> = random_edges(&mut rng, LONG, 0..500)
        .into_iter()
        .map(|(s, d)| (s, d + 1_000))
        .collect();
    check(&above, true, "destinations above every source");
    let below: Vec<Edge> = above.iter().map(|&(s, d)| (d, s)).collect();
    check(&below, true, "destinations below every source");
}
