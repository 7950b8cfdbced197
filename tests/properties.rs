//! Property-based tests over the core data structures and operators.
//!
//! Hand-rolled property loop: each property runs over `CASES` seeded
//! random inputs from the in-tree [`ringo_rng`] generator, so failures
//! reproduce exactly (the failing seed is in the assertion message) and
//! the suite needs no external fuzzing dependency.

use ringo::concurrent::radix::SEQ_THRESHOLD;
use ringo::concurrent::{
    radix_sort_columns, radix_sort_rows, IntHashTable, SortColumn, SortedPairs, SortedRows,
};
use ringo::convert::{table_to_graph, table_to_graph_naive, table_to_undirected};
use ringo::gen::edges_to_table;
use ringo::graph::DirectedTopology;
use ringo::{Cmp, DirectedGraph, Predicate};
use ringo_rng::Rng64;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

const CASES: u64 = 64;

/// Runs `body` once per case with a per-case deterministic generator.
fn for_cases(name: &str, body: impl Fn(&mut Rng64)) {
    for case in 0..CASES {
        // Distinct stream per (property, case) pair.
        let seed = name
            .bytes()
            .fold(case.wrapping_mul(0x9E37_79B9_7F4A_7C15), |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
            });
        body(&mut Rng64::new(seed));
    }
}

fn edge_list(rng: &mut Rng64, max_node: i64, max_len: usize) -> Vec<(i64, i64)> {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| (rng.range_i64(0..max_node), rng.range_i64(0..max_node)))
        .collect()
}

fn int_vec(rng: &mut Rng64, max_len: usize, lo: i64, hi: i64) -> Vec<i64> {
    let len = rng.below(max_len + 1);
    (0..len).map(|_| rng.range_i64(lo..hi)).collect()
}

/// The rows of `cols` in the order [`radix_sort_rows`] sorts them,
/// whichever word it sorted in.
fn radix_rows(cols: &[SortColumn<'_>], ascending: bool, threads: usize) -> Vec<usize> {
    match radix_sort_rows(cols, ascending, None, threads) {
        SortedRows::U64(keys, codec) => keys.iter().map(|&k| codec.position(k)).collect(),
        SortedRows::U128(keys, codec) => keys.iter().map(|&k| codec.position(k)).collect(),
        SortedRows::Chained(rows) => rows.iter().map(|&r| r as usize).collect(),
    }
}

/// `0..len` in the order a stable sort by `cmp` leaves it.
fn stable_order(len: usize, ascending: bool, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..len).collect();
    if ascending {
        rows.sort_by(|&a, &b| cmp(a, b));
    } else {
        rows.sort_by(|&a, &b| cmp(b, a));
    }
    rows
}

/// The row sort of one `Int` column equals a stable `sort_by` on
/// adversarial distributions — duplicates-heavy, all-equal, negative ids,
/// i64 extremes, skewed magnitudes, full range — both directions, at
/// every thread count and around the sequential threshold, in whichever
/// word the values need.
#[test]
fn radix_sort_matches_std_on_adversarial_distributions() {
    for_cases(
        "radix_sort_matches_std_on_adversarial_distributions",
        |rng| {
            let dist = rng.below(6);
            let len = match rng.below(3) {
                0 => rng.below(SEQ_THRESHOLD / 2),
                1 => SEQ_THRESHOLD - 2 + rng.below(5), // straddle the threshold
                _ => SEQ_THRESHOLD + rng.below(30_000),
            };
            let data: Vec<i64> = (0..len)
                .map(|_| match dist {
                    0 => rng.i64(),
                    1 => rng.range_i64(-4..4),
                    2 => 42,
                    3 => -rng.range_i64(0..1_000_000),
                    4 => {
                        if rng.bool() {
                            i64::MIN
                        } else {
                            i64::MAX
                        }
                    }
                    _ => rng.range_i64(-1_000..1_000) << rng.below(40),
                })
                .collect();
            for ascending in [true, false] {
                let expect = stable_order(len, ascending, |a, b| data[a].cmp(&data[b]));
                for threads in [1usize, 2, 4] {
                    assert_eq!(
                        radix_rows(&[SortColumn::Int(&data)], ascending, threads),
                        expect,
                        "dist={dist} len={len} asc={ascending} threads={threads}"
                    );
                }
            }
        },
    );
}

/// The column pair sort equals `sort_unstable` on the `(i64, i64)` tuples
/// (each as `(min, max)`, when canonical) for any id distribution —
/// narrow, either sign, full range — including empty and length-1 inputs.
#[test]
fn radix_sort_columns_matches_std() {
    for_cases("radix_sort_columns_matches_std", |rng| {
        let len = match rng.below(4) {
            0 => 0,
            1 => 1,
            2 => rng.below(SEQ_THRESHOLD),
            _ => SEQ_THRESHOLD + rng.below(20_000),
        };
        let span = 1 + rng.range_i64(1..500);
        let full = rng.below(4) == 0;
        let mut id = || {
            if full {
                rng.i64()
            } else {
                rng.range_i64(-span..span)
            }
        };
        let a: Vec<i64> = (0..len).map(|_| id()).collect();
        let b: Vec<i64> = (0..len).map(|_| id()).collect();
        for canonical in [false, true] {
            let mut expect: Vec<(i64, i64)> = a
                .iter()
                .zip(&b)
                .map(|(&s, &d)| {
                    if canonical {
                        (s.min(d), s.max(d))
                    } else {
                        (s, d)
                    }
                })
                .collect();
            expect.sort_unstable();
            for threads in [1usize, 2, 4] {
                let ours: Vec<(i64, i64)> =
                    match radix_sort_columns(&a, &b, [None, None], canonical, threads) {
                        SortedPairs::U64(keys, codec) => keys
                            .iter()
                            .map(|&k| (codec.first(k), codec.second(k)))
                            .collect(),
                        SortedPairs::U128(keys, codec) => keys
                            .iter()
                            .map(|&k| (codec.first(k), codec.second(k)))
                            .collect(),
                    };
                assert_eq!(
                    ours, expect,
                    "len={len} span={span} full={full} canonical={canonical} threads={threads}"
                );
            }
        }
    });
}

/// The row sort is stable in every word: ties keep their input order,
/// exactly like the standard library's stable sort, whether the keys fit
/// a `u64`, a `u128`, or take chained passes (one to three columns of
/// few distinct values, narrow or full-range).
#[test]
fn radix_sort_by_key_is_stable() {
    for_cases("radix_sort_by_key_is_stable", |rng| {
        let len = rng.below(SEQ_THRESHOLD * 3);
        let pool = [i64::MIN, -1, 0, 1, i64::MAX];
        let cols: Vec<Vec<i64>> = (0..1 + rng.below(3))
            .map(|_| {
                let full = rng.bool();
                (0..len)
                    .map(|_| {
                        if full {
                            pool[rng.below(pool.len())]
                        } else {
                            rng.range_i64(-8..8)
                        }
                    })
                    .collect()
            })
            .collect();
        let sort_cols: Vec<SortColumn<'_>> = cols.iter().map(|c| SortColumn::Int(c)).collect();
        for ascending in [true, false] {
            let expect = stable_order(len, ascending, |a, b| {
                cols.iter()
                    .map(|c| c[a].cmp(&c[b]))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    radix_rows(&sort_cols, ascending, threads),
                    expect,
                    "len={len} cols={} asc={ascending} threads={threads}",
                    cols.len()
                );
            }
        }
    });
}

/// The open-addressing table behaves exactly like std HashMap under
/// arbitrary insert/remove interleavings.
#[test]
fn hash_table_matches_std() {
    for_cases("hash_table_matches_std", |rng| {
        let ops = rng.below(2_000);
        let mut ours: IntHashTable<i64> = IntHashTable::new();
        let mut std_map: HashMap<i64, i64> = HashMap::new();
        for i in 0..ops {
            let k = rng.range_i64(-(i16::MAX as i64)..i16::MAX as i64);
            if rng.bool() {
                assert_eq!(ours.insert(k, i as i64), std_map.insert(k, i as i64));
            } else {
                assert_eq!(ours.remove(k), std_map.remove(&k));
            }
            assert_eq!(ours.len(), std_map.len());
        }
        for (k, v) in &std_map {
            assert_eq!(ours.get(*k), Some(v));
        }
    });
}

/// Sort-first conversion is equivalent to naive row-at-a-time
/// construction for any edge multiset.
#[test]
fn sort_first_equals_naive() {
    for_cases("sort_first_equals_naive", |rng| {
        let edges = edge_list(rng, 200, 2_000);
        let threads = rng.range_usize(1..5);
        let mut t = edges_to_table(&edges);
        t.set_threads(threads);
        let fast = table_to_graph(&t, "src", "dst").unwrap();
        let naive = table_to_graph_naive(&t, "src", "dst").unwrap();
        assert_eq!(fast.node_count(), naive.node_count());
        assert_eq!(fast.edge_count(), naive.edge_count());
        for id in naive.node_ids() {
            assert_eq!(fast.out_nbrs(id), naive.out_nbrs(id));
            assert_eq!(fast.in_nbrs(id), naive.in_nbrs(id));
        }
    });
}

/// Graph adjacency invariants hold under arbitrary add/del sequences:
/// u in out(v) iff v in in(u); edge counts match; vectors stay sorted.
#[test]
fn dynamic_graph_invariants() {
    for_cases("dynamic_graph_invariants", |rng| {
        let ops = rng.below(800);
        let mut g = DirectedGraph::new();
        let mut reference: HashSet<(i64, i64)> = HashSet::new();
        let mut ref_nodes: HashSet<i64> = HashSet::new();
        for _ in 0..ops {
            let a = rng.range_i64(0..40);
            let b = rng.range_i64(0..40);
            match rng.below(4) {
                0 | 1 => {
                    let added = g.add_edge(a, b);
                    assert_eq!(added, reference.insert((a, b)));
                    ref_nodes.insert(a);
                    ref_nodes.insert(b);
                }
                2 => {
                    let removed = g.del_edge(a, b);
                    assert_eq!(removed, reference.remove(&(a, b)));
                }
                _ => {
                    let existed = g.del_node(a);
                    assert_eq!(existed, ref_nodes.remove(&a));
                    reference.retain(|&(s, d)| s != a && d != a);
                }
            }
        }
        assert_eq!(g.edge_count(), reference.len());
        assert_eq!(g.node_count(), ref_nodes.len());
        for id in g.node_ids() {
            let slot = g.slot_of(id).expect("a node has a slot");
            let row = g.out_row(slot);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "sorted out-row");
            for n in g.out_nbrs(id) {
                assert!(reference.contains(&(id, n)));
                let back = g.slot_of(n).map_or(&[][..], |t| g.in_row(t));
                assert!(back.binary_search(&(slot as u32)).is_ok(), "in/out in sync");
            }
        }
    });
}

/// Select partitions rows: |select(p)| + |select(!p)| == n, and every
/// kept row satisfies the predicate.
#[test]
fn select_partitions_rows() {
    for_cases("select_partitions_rows", |rng| {
        let vals = int_vec(rng, 3_000, -100, 100);
        let pivot = rng.range_i64(-100..100);
        let t = ringo::Table::from_int_column("x", vals.clone());
        let p = Predicate::int("x", Cmp::Lt, pivot);
        let yes = t.select(&p).unwrap();
        let no = t.select(&p.clone().not()).unwrap();
        assert_eq!(yes.n_rows() + no.n_rows(), t.n_rows());
        assert!(yes.int_col("x").unwrap().iter().all(|v| *v < pivot));
        assert!(no.int_col("x").unwrap().iter().all(|v| *v >= pivot));
        // Row ids trace back to original positions.
        for (pos, rid) in yes.row_ids().iter().enumerate() {
            assert_eq!(yes.int_col("x").unwrap()[pos], vals[*rid as usize]);
        }
    });
}

/// Join output equals the nested-loop reference on small inputs.
#[test]
fn join_matches_nested_loop() {
    for_cases("join_matches_nested_loop", |rng| {
        let left = int_vec(rng, 200, 0, 30);
        let right = int_vec(rng, 200, 0, 30);
        let lt = ringo::Table::from_int_column("k", left.clone());
        let rt = ringo::Table::from_int_column("k", right.clone());
        let j = lt.join(&rt, "k", "k").unwrap();
        let expected: usize = left
            .iter()
            .map(|l| right.iter().filter(|r| *r == l).count())
            .sum();
        assert_eq!(j.n_rows(), expected);
        let a = j.int_col("k").unwrap();
        let b = j.int_col("k-1").unwrap();
        assert!(a.iter().zip(b).all(|(x, y)| x == y));
    });
}

/// Undirected conversion: symmetric neighbor relation, edge count
/// equals the number of distinct undirected pairs.
#[test]
fn undirected_conversion_is_symmetric() {
    for_cases("undirected_conversion_is_symmetric", |rng| {
        let edges = edge_list(rng, 60, 1_000);
        let t = edges_to_table(&edges);
        let u = table_to_undirected(&t, "src", "dst").unwrap();
        let mut pairs: HashSet<(i64, i64)> = HashSet::new();
        for (a, b) in &edges {
            pairs.insert((*a.min(b), *a.max(b)));
        }
        assert_eq!(u.edge_count(), pairs.len());
        for id in u.node_ids() {
            for n in u.nbrs(id) {
                assert!(u.nbrs(n).any(|m| m == id));
            }
        }
    });
}

/// PageRank always returns a probability distribution.
#[test]
fn pagerank_is_a_distribution() {
    for_cases("pagerank_is_a_distribution", |rng| {
        let mut edges = edge_list(rng, 50, 500);
        if edges.is_empty() {
            edges.push((rng.range_i64(0..50), rng.range_i64(0..50)));
        }
        let t = edges_to_table(&edges);
        let g = table_to_graph(&t, "src", "dst").unwrap();
        let pr = ringo::algo::pagerank(&g, &ringo::PageRankConfig::default());
        let sum: f64 = pr.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {}", sum);
        assert!(pr.iter().all(|(_, s)| *s >= 0.0));
        assert_eq!(pr.len(), g.node_count());
    });
}

/// order_by produces a sorted permutation of the original rows.
#[test]
fn order_by_is_a_sorted_permutation() {
    for_cases("order_by_is_a_sorted_permutation", |rng| {
        let len = rng.below(2_000);
        let vals: Vec<i64> = (0..len).map(|_| rng.i64()).collect();
        let mut t = ringo::Table::from_int_column("x", vals.clone());
        t.order_by(&["x"], true).unwrap();
        let sorted = t.int_col("x").unwrap();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut expect = vals;
        expect.sort_unstable();
        assert_eq!(sorted.to_vec(), expect);
    });
}

/// Semi and anti join partition the left table, and semi-join equals
/// an IN-list select.
#[test]
fn semi_anti_join_partition() {
    for_cases("semi_anti_join_partition", |rng| {
        let left = int_vec(rng, 500, 0, 50);
        let right = int_vec(rng, 100, 0, 50);
        let lt = ringo::Table::from_int_column("k", left.clone());
        let rt = ringo::Table::from_int_column("k", right.clone());
        let semi = lt.semi_join(&rt, "k", "k").unwrap();
        let anti = lt.anti_join(&rt, "k", "k").unwrap();
        assert_eq!(semi.n_rows() + anti.n_rows(), lt.n_rows());
        let via_select = lt.select(&Predicate::int_in("k", right.clone())).unwrap();
        assert_eq!(semi.int_col("k").unwrap(), via_select.int_col("k").unwrap());
        assert_eq!(semi.row_ids(), via_select.row_ids());
    });
}

/// top_k equals a full sort followed by truncation, for either order.
#[test]
fn top_k_equals_sort_prefix() {
    for_cases("top_k_equals_sort_prefix", |rng| {
        let len = rng.below(1_000);
        let vals: Vec<i64> = (0..len).map(|_| rng.i64()).collect();
        let k = rng.below(50);
        let ascending = rng.bool();
        let t = ringo::Table::from_int_column("v", vals);
        let top = t.top_k(&["v"], k, ascending).unwrap();
        let mut sorted = t.clone();
        sorted.order_by(&["v"], ascending).unwrap();
        let k = k.min(t.n_rows());
        assert_eq!(
            top.int_col("v").unwrap(),
            &sorted.int_col("v").unwrap()[..k]
        );
    });
}

/// Sampling returns distinct original rows and is deterministic.
#[test]
fn sample_is_distinct_subset() {
    for_cases("sample_is_distinct_subset", |rng| {
        let n = rng.below(500);
        let k = rng.below(500);
        let seed = rng.u64();
        let t = ringo::Table::from_int_column("v", (0..n as i64).collect());
        let s = t.sample_rows(k, seed).unwrap();
        assert_eq!(s.n_rows(), k.min(n));
        let mut ids = s.row_ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), s.n_rows(), "no duplicates");
        let again = t.sample_rows(k, seed).unwrap();
        assert_eq!(s.row_ids(), again.row_ids());
    });
}

/// Weighted conversion with multiplicity weights conserves total
/// weight: sum of edge weights == number of table rows.
#[test]
fn weighted_conversion_conserves_mass() {
    for_cases("weighted_conversion_conserves_mass", |rng| {
        let edges = edge_list(rng, 40, 500);
        let t = edges_to_table(&edges);
        let wg = ringo::convert::table_to_weighted_graph(&t, "src", "dst", None).unwrap();
        let total: f64 = wg.edges().map(|(_, _, w)| w).sum();
        assert_eq!(total as usize, edges.len());
        // Unweighted view has the same topology as the direct conversion.
        let direct = table_to_graph(&t, "src", "dst").unwrap();
        let via = wg.to_unweighted();
        assert_eq!(direct.edge_count(), via.edge_count());
        assert_eq!(direct.node_count(), via.node_count());
    });
}

/// The triad census always sums to C(n, 3).
#[test]
fn triad_census_total() {
    for_cases("triad_census_total", |rng| {
        let edges = edge_list(rng, 15, 150);
        let t = edges_to_table(&edges);
        let g = table_to_graph(&t, "src", "dst").unwrap();
        let n = g.node_count() as u64;
        let census = ringo::algo::triad_census(&g);
        assert_eq!(
            census.total(),
            n.saturating_sub(1) * n.saturating_sub(2) * n / 6
        );
    });
}

/// The row sort of one `Float` column equals the standard library's
/// stable sort under `f64::total_cmp`, for both directions, at every
/// thread count — on adversarial values (NaNs of both signs, ±0,
/// ±infinity, subnormals, ordinary magnitudes) and on PageRank-like
/// positive scores over many magnitudes, both of which need a `u128`
/// word beside the position once they vary.
#[test]
fn float_radix_key_matches_total_order_sort() {
    for_cases("float_radix_key_matches_total_order_sort", |rng| {
        let len = rng.below(SEQ_THRESHOLD * 2);
        let scores = rng.bool();
        let data: Vec<f64> = (0..len)
            .map(|_| {
                if scores {
                    return rng.f64() * 10f64.powi(-(rng.below(8) as i32));
                }
                match rng.below(8) {
                    0 => f64::NAN,
                    1 => -f64::NAN,
                    2 => {
                        if rng.bool() {
                            0.0
                        } else {
                            -0.0
                        }
                    }
                    3 => {
                        if rng.bool() {
                            f64::INFINITY
                        } else {
                            f64::NEG_INFINITY
                        }
                    }
                    // Subnormals: tiny positive/negative bit patterns.
                    4 => {
                        f64::from_bits(1 + rng.u64() % 0xF_FFFF_FFFF_FFFF)
                            * if rng.bool() { 1.0 } else { -1.0 }
                    }
                    5 => rng.range_i64(-6..6) as f64,
                    _ => (rng.f64() - 0.5) * 1e12,
                }
            })
            .collect();
        for ascending in [true, false] {
            // std stable sort: ties (including identical NaN payloads)
            // keep input order — the radix path must match exactly.
            let expect = stable_order(len, ascending, |a, b| data[a].total_cmp(&data[b]));
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    radix_rows(&[SortColumn::Float(&data)], ascending, threads),
                    expect,
                    "len={len} scores={scores} asc={ascending} threads={threads}"
                );
            }
        }
    });
}

/// `order_by` on a float column (radix path) equals the comparison sort
/// on an equivalent table, including NaN placement and row-id order.
#[test]
fn float_order_by_matches_total_cmp() {
    for_cases("float_order_by_matches_total_cmp", |rng| {
        let len = rng.below(3_000);
        let vals: Vec<f64> = (0..len)
            .map(|_| match rng.below(5) {
                0 => f64::NAN,
                1 => -f64::NAN,
                2 => {
                    if rng.bool() {
                        0.0
                    } else {
                        -0.0
                    }
                }
                _ => (rng.f64() - 0.5) * 1e6,
            })
            .collect();
        let ascending = rng.bool();
        let mut t = ringo::Table::new(ringo::Schema::new([("x", ringo::ColumnType::Float)]));
        for v in &vals {
            t.push_row(&[ringo::Value::Float(*v)]).unwrap();
        }
        t.set_threads(rng.range_usize(1..5));
        t.order_by(&["x"], ascending).unwrap();
        // Reference: stable sort of (value, original position).
        let mut expect: Vec<(f64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u64))
            .collect();
        if ascending {
            expect.sort_by(|a, b| a.0.total_cmp(&b.0));
        } else {
            expect.sort_by(|a, b| b.0.total_cmp(&a.0));
        }
        let got_bits: Vec<u64> = t
            .float_col("x")
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let want_bits: Vec<u64> = expect.iter().map(|(v, _)| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits);
        let want_ids: Vec<u64> = expect.iter().map(|(_, id)| *id).collect();
        assert_eq!(t.row_ids(), &want_ids[..], "stable: ties keep row order");
    });
}

/// Subgraph induced on all nodes is the identity; on a subset, every
/// surviving edge has both endpoints inside.
#[test]
fn induced_subgraph_invariants() {
    for_cases("induced_subgraph_invariants", |rng| {
        let edges = edge_list(rng, 30, 300);
        let keep = int_vec(rng, 20, 0, 30);
        let t = edges_to_table(&edges);
        let g = table_to_graph(&t, "src", "dst").unwrap();
        let all: Vec<i64> = g.node_ids().collect();
        let full = g.subgraph(&all);
        assert_eq!(full.edge_count(), g.edge_count());
        let sub = g.subgraph(&keep);
        for (s, d) in sub.edges() {
            assert!(keep.contains(&s) && keep.contains(&d));
            assert!(g.has_edge(s, d));
        }
    });
}

/// Triangle counting is thread-count invariant and matches the
/// brute-force reference on small graphs.
#[test]
fn triangles_match_bruteforce() {
    for_cases("triangles_match_bruteforce", |rng| {
        let edges = edge_list(rng, 25, 300);
        let t = edges_to_table(&edges);
        let u = table_to_undirected(&t, "src", "dst").unwrap();
        let fast = ringo::algo::count_triangles(&u, 1);
        let par = ringo::algo::count_triangles(&u, 4);
        assert_eq!(fast, par);
        // Brute force over node triples.
        let ids: Vec<i64> = u.node_ids().collect();
        let mut brute = 0u64;
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                if !u.has_edge(ids[i], ids[j]) {
                    continue;
                }
                for k in (j + 1)..ids.len() {
                    if u.has_edge(ids[i], ids[k]) && u.has_edge(ids[j], ids[k]) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(fast, brute);
    });
}
