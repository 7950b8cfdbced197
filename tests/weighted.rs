//! Table → weighted graph against a row-at-a-time oracle, slot for slot
//! and bit for bit.
//!
//! The conversion is the sort-first directed conversion plus one pass
//! over the rows in row order that adds each row's weight into its edge's
//! place in a slab starting at `-0.0`. The oracle adds the nodes in
//! ascending id order and then calls `add_edge` row by row, so both must
//! hold the same ids in the same slots, the same rows and every weight
//! equal by `to_bits` — the left fold of its rows in row order — at
//! threads 1, 2 and 4, on R-MAT tables with repeated rows, int, float and
//! count weights, a first weight of `-0.0`, ids across all of `i64` (the
//! `u128` sort word), a `select` view and an empty table. Edits must then
//! keep the two equal, and the weighted kernels must agree bit for bit.

use ringo::algo::{dijkstra_weighted, pagerank_weighted};
use ringo::convert::{table_to_weighted_graph, table_to_weighted_graph_threads};
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{Cmp, NodeId, NodeValues, PageRankConfig, Predicate, Ringo, Table, WeightedDigraph};
use ringo_rng::Rng64;

type Edge = (NodeId, NodeId);

/// The weight column a case converts with.
#[derive(Clone, Copy, Debug)]
enum Weights {
    Count,
    Int,
    Float,
}

impl Weights {
    fn col(self) -> Option<&'static str> {
        match self {
            Weights::Count => None,
            Weights::Int => Some("n"),
            Weights::Float => Some("w"),
        }
    }
}

/// `edges` as a table with an int column `n` and a float column `w`,
/// both non-negative; `w` is `-0.0` on every row `neg_zero` accepts.
fn table(edges: &[Edge], rng: &mut Rng64, neg_zero: impl Fn(usize) -> bool) -> Table {
    let mut t = edges_to_table(edges);
    let n = (0..edges.len()).map(|_| rng.range_i64(0..1000)).collect();
    let w = (0..edges.len())
        .map(|row| if neg_zero(row) { -0.0 } else { rng.f64() * 8.0 })
        .collect();
    t.add_int_column("n", n).unwrap();
    t.add_float_column("w", w).unwrap();
    t
}

/// R-MAT edges with a fifth of them repeated at random places.
fn rmat_rows(scale: u32, edges: usize, seed: u64) -> Vec<Edge> {
    let mut rows = rmat(&RmatConfig {
        scale,
        edges,
        seed,
        ..Default::default()
    });
    let mut rng = Rng64::new(seed ^ 0x5eed);
    for _ in 0..edges / 5 {
        let e = rows[rng.below(rows.len())];
        rows.push(e);
    }
    rng.shuffle(&mut rows);
    rows
}

/// The oracle: the nodes in ascending id order, then `add_edge` row by
/// row.
fn oracle(t: &Table, weight_col: Option<&str>) -> WeightedDigraph {
    let (src, dst) = (t.int_col("src").unwrap(), t.int_col("dst").unwrap());
    let mut ids: Vec<NodeId> = src.iter().chain(dst).copied().collect();
    ids.sort_unstable();
    ids.dedup();
    let mut g = WeightedDigraph::with_capacity(ids.len());
    for id in ids {
        g.add_node(id);
    }
    let weights: Vec<f64> = match weight_col {
        None => vec![1.0; src.len()],
        Some("n") => t.int_col("n").unwrap().iter().map(|&n| n as f64).collect(),
        Some(c) => t.float_col(c).unwrap().to_vec(),
    };
    for ((&s, &d), &w) in src.iter().zip(dst).zip(&weights) {
        g.add_edge(s, d, w);
    }
    g
}

/// Same ids in the same slots, same rows, every weight equal by bits.
fn assert_same(got: &WeightedDigraph, want: &WeightedDigraph, what: &str) {
    assert_eq!(got.node_count(), want.node_count(), "{what}: nodes");
    assert_eq!(got.edge_count(), want.edge_count(), "{what}: edges");
    assert_eq!(got.n_slots(), want.n_slots(), "{what}: slots");
    for s in 0..want.n_slots() {
        assert_eq!(got.slot_id(s), want.slot_id(s), "{what}: id of slot {s}");
        assert_eq!(got.out_row(s), want.out_row(s), "{what}: out-row {s}");
        assert_eq!(got.in_row(s), want.in_row(s), "{what}: in-row {s}");
        let bits = |g: &WeightedDigraph| g.out_weights(s).iter().map(|w| w.to_bits()).collect();
        let (a, b): (Vec<u64>, Vec<u64>) = (bits(got), bits(want));
        assert_eq!(a, b, "{what}: weights of slot {s}");
    }
}

/// Converts `t` every way — the function at threads 1, 2 and 4, the
/// table's own thread setting and the facade — against the oracle, and
/// returns the conversion at 2 threads.
fn check(t: &Table, weights: Weights, what: &str) -> WeightedDigraph {
    let want = oracle(t, weights.col());
    for threads in [1, 2, 4] {
        let ctx = format!("{what} {weights:?} threads={threads}");
        let got = table_to_weighted_graph_threads(t, "src", "dst", weights.col(), threads);
        assert_same(&got.unwrap(), &want, &ctx);
        let mut own = t.clone();
        own.set_threads(threads);
        let got = table_to_weighted_graph(&own, "src", "dst", weights.col()).unwrap();
        assert_same(&got, &want, &format!("{ctx} (table threads)"));
        let ringo = Ringo::with_threads(threads);
        let got = ringo.to_weighted_graph(t, "src", "dst", weights.col());
        assert_same(&got.unwrap(), &want, &format!("{ctx} (facade)"));
    }
    table_to_weighted_graph_threads(t, "src", "dst", weights.col(), 2).unwrap()
}

fn check_all(t: &Table, what: &str) {
    for weights in [Weights::Count, Weights::Int, Weights::Float] {
        check(t, weights, what);
    }
}

#[test]
fn rmat_tables_with_repeated_rows_match_the_oracle() {
    for (scale, edges, seed) in [(8, 1_500, 1), (11, 12_000, 2)] {
        let rows = rmat_rows(scale, edges, seed);
        let t = table(&rows, &mut Rng64::new(seed), |_| false);
        check_all(&t, &format!("rmat scale {scale}"));
    }
}

#[test]
fn a_first_weight_of_negative_zero_folds_as_add_edge_does() {
    // Every edge's first row weighs -0.0; a third of the edges weigh
    // nothing else, so their weight stays -0.0.
    let mut rows: Vec<Edge> = (0..60).map(|i| (i % 7, i % 11)).collect();
    rows.extend((0..40).map(|i| (i % 7, i % 11)));
    let first = |row: usize| row < 60 || row.is_multiple_of(3);
    let t = table(&rows, &mut Rng64::new(3), first);
    let g = check(&t, Weights::Float, "negative zero");
    let neg = g.edges().filter(|e| e.2.to_bits() == (-0.0f64).to_bits());
    assert!(neg.count() > 0, "some weight stays -0.0");
}

#[test]
fn ids_across_all_of_i64_match_the_oracle() {
    let spread = [
        i64::MIN,
        i64::MIN + 1,
        -(1 << 40),
        -1,
        0,
        1,
        1 << 50,
        i64::MAX,
    ];
    let mut rng = Rng64::new(4);
    let rows: Vec<Edge> = (0..400)
        .map(|_| (spread[rng.below(8)], spread[rng.below(8)]))
        .collect();
    let t = table(&rows, &mut rng, |row| row.is_multiple_of(5));
    check_all(&t, "i64 spread");
    // Mixed signs on a larger graph: the u128 word with many nodes.
    let rows: Vec<Edge> = rmat_rows(10, 6_000, 5)
        .into_iter()
        .map(|(s, d)| (s - 512, (d << 40) ^ i64::MIN))
        .collect();
    check_all(&table(&rows, &mut rng, |_| false), "mixed signs");
}

#[test]
fn a_select_view_matches_the_oracle_on_its_rows() {
    let rows = rmat_rows(9, 3_000, 6);
    let t = table(&rows, &mut Rng64::new(6), |_| false);
    let view = t.select(&Predicate::int("n", Cmp::Lt, 600)).unwrap();
    assert!(view.n_rows() < t.n_rows() && view.n_rows() > 0);
    check_all(&view, "view");
}

#[test]
fn an_empty_table_is_an_empty_graph() {
    let t = table(&[], &mut Rng64::new(7), |_| false);
    for weights in [Weights::Count, Weights::Int, Weights::Float] {
        let g = check(&t, weights, "empty");
        assert_eq!((g.node_count(), g.edge_count()), (0, 0));
    }
}

/// One step of an edit script, applied alike to both graphs.
fn edit(g: &mut WeightedDigraph, step: (u8, NodeId, NodeId, f64)) -> (Option<u64>, bool) {
    match step {
        (0, a, b, w) => (Some(g.add_edge(a, b, w).to_bits()), true),
        (1, a, b, _) => (g.del_edge(a, b).map(f64::to_bits), true),
        (_, a, _, _) => (None, g.add_node(a)),
    }
}

#[test]
fn edit_scripts_leave_the_bulk_graph_equal_to_the_oracle() {
    for (seed, threads) in [(8, 1), (9, 2), (10, 4)] {
        let rows = rmat_rows(9, 2_500, seed);
        let t = table(&rows, &mut Rng64::new(seed), |_| false);
        let mut want = oracle(&t, Some("w"));
        let mut got =
            table_to_weighted_graph_threads(&t, "src", "dst", Some("w"), threads).unwrap();
        let mut rng = Rng64::new(seed);
        for i in 0..3_000 {
            // Mostly ids of the graph; a few new ones, which take new slots.
            let id = |rng: &mut Rng64| {
                let end = if rng.chance(0.05) { 700 } else { 512 };
                rng.range_i64(0..end)
            };
            let step = (rng.below(3) as u8, id(&mut rng), id(&mut rng), rng.f64());
            assert_eq!(
                edit(&mut got, step),
                edit(&mut want, step),
                "step {i}: {step:?}"
            );
        }
        assert_same(&got, &want, &format!("after edits, seed {seed}"));
    }
}

#[test]
fn editing_a_clone_leaves_the_original_weights() {
    let rows = rmat_rows(9, 2_500, 11);
    let t = table(&rows, &mut Rng64::new(11), |_| false);
    let g = table_to_weighted_graph(&t, "src", "dst", Some("w")).unwrap();
    let before: Vec<_> = g.edges().map(|(s, d, w)| (s, d, w.to_bits())).collect();
    let mut copy = g.clone();
    let (s, d, w) = g.edges().nth(100).unwrap();
    copy.add_edge(s, d, 1.5);
    copy.del_edge(g.edges().nth(7).unwrap().0, g.edges().nth(7).unwrap().1);
    copy.add_edge(s, 9_999, 2.0);
    assert_eq!(copy.weight(s, d), Some(w + 1.5));
    let after: Vec<_> = g.edges().map(|(s, d, w)| (s, d, w.to_bits())).collect();
    assert_eq!(before, after, "the original is untouched");
    assert_eq!(g.weight(s, 9_999), None);
}

/// A kernel's answer as `(id, bits)` pairs in slot order.
fn bits(v: &NodeValues<f64>) -> Vec<(NodeId, u64)> {
    v.iter().map(|(id, x)| (id, x.to_bits())).collect()
}

#[test]
fn weighted_kernels_agree_bit_for_bit_with_the_oracle() {
    let rows = rmat_rows(10, 8_000, 12);
    let t = table(&rows, &mut Rng64::new(12), |_| false);
    for weights in [Weights::Count, Weights::Int, Weights::Float] {
        let want = oracle(&t, weights.col());
        let got = check(&t, weights, "kernels");
        for threads in [1, 2, 4] {
            let config = PageRankConfig {
                iterations: 15,
                threads,
                ..Default::default()
            };
            let (a, b) = (
                pagerank_weighted(&got, &config),
                pagerank_weighted(&want, &config),
            );
            assert_eq!(bits(&a), bits(&b), "{weights:?} pagerank at {threads}");
        }
        for src in want.node_ids().step_by(97) {
            let (a, b) = (dijkstra_weighted(&got, src), dijkstra_weighted(&want, src));
            assert_eq!(bits(&a), bits(&b), "{weights:?} dijkstra from {src}");
        }
    }
}
