//! Conversions between Ringo tables and graphs (paper §2.4).
//!
//! "Fast conversions between graph and table objects are essential for
//! data exploration tasks involving graphs." Two directions:
//!
//! * **Table → graph** ([`table_to_graph`]): the paper's "sort-first"
//!   algorithm — copy the source and destination columns, sort the copies
//!   in parallel, compute each node's neighbor counts from the sorted
//!   runs, and install the neighbor vectors into the graph's node hash
//!   table. Sorting parallelizes cleanly and the fill phase writes
//!   disjoint slab ranges, so "while concurrent access is still
//!   performed, there is no contention among the threads". Two
//!   optimizations over the paper's sketch: the pair sort runs on the
//!   parallel LSD **radix sorter** (integer keys, digit skipping) rather
//!   than a comparison sort, and the fill phase ([`adjacency_parts`]) is
//!   **allocation-free per node** — deduplicated neighbor runs are
//!   written straight into two shared adjacency slabs at prefix-scanned
//!   offsets instead of one freshly grown `Vec` per node, and
//!   [`DirectedGraph::from_sorted_parts`] installs them with a single
//!   pre-reserved hash table. A naive row-at-a-time baseline
//!   ([`table_to_graph_naive`]) is kept as the tests' oracle.
//! * **Graph → table** ([`graph_to_edge_table`], [`graph_to_node_table`]):
//!   "easily performed in parallel by partitioning the graph's nodes or
//!   edges among worker threads, pre-allocating the output table, and
//!   assigning a corresponding partition in the output table to each
//!   thread."

#![warn(missing_docs)]

use ringo_concurrent::{parallel_for, parallel_map, radix_sort_pairs, DisjointSlice};
use ringo_graph::{new_slab, DirectedGraph, NodeId, UndirectedGraph};
use ringo_table::{ColumnData, ColumnType, Schema, StringPool, Table, TableError};
use std::sync::Arc;

/// Result alias reusing the table error type (conversions validate column
/// names/types exactly like table operators).
pub type Result<T> = std::result::Result<T, TableError>;

/// Builds a directed graph from two integer columns of `t` using the
/// sort-first algorithm. Duplicate rows collapse to one edge; self-loops
/// are preserved. Parallelism follows `t.threads()`.
///
/// ```
/// use ringo_convert::{graph_to_edge_table, table_to_graph};
/// use ringo_table::Table;
///
/// let mut t = Table::from_int_column("src", vec![1, 1, 2]);
/// t.add_int_column("dst", vec![2, 2, 3]).unwrap();
/// let g = table_to_graph(&t, "src", "dst").unwrap();
/// assert_eq!(g.edge_count(), 2); // duplicate rows collapse
/// let back = graph_to_edge_table(&g, 2);
/// assert_eq!(back.n_rows(), 2);
/// ```
pub fn table_to_graph(t: &Table, src_col: &str, dst_col: &str) -> Result<DirectedGraph> {
    let mut sp = ringo_trace::span!("convert.table_to_graph");
    sp.rows_in(t.n_rows());
    let src = t.int_col(src_col)?;
    let dst = t.int_col(dst_col)?;
    let threads = t.threads();
    let n = src.len();

    // Step 1-2: copy the columns into (key, neighbor) pair arrays and
    // radix-sort both orientations in parallel.
    let mut by_src: Vec<(NodeId, NodeId)> = src.iter().copied().zip(dst.iter().copied()).collect();
    let mut by_dst: Vec<(NodeId, NodeId)> = dst.iter().copied().zip(src.iter().copied()).collect();
    radix_sort_pairs(&mut by_src, threads);
    radix_sort_pairs(&mut by_dst, threads);
    debug_assert_eq!(by_src.len(), n);

    // Steps 3-5: slab fill — counts, prefix scan, contention-free scatter.
    let parts = adjacency_parts(&by_src, &by_dst, threads);
    drop(by_src);
    drop(by_dst);

    let g = DirectedGraph::from_sorted_parts(
        parts.ids,
        &parts.in_off,
        parts.in_slab,
        &parts.out_off,
        parts.out_slab,
    );
    sp.rows_out(g.edge_count());
    Ok(g)
}

/// Slab-form directed adjacency produced by [`adjacency_parts`]: node `k`
/// (ascending ids) owns `in_slab[in_off[k]..in_off[k + 1]]` and
/// `out_slab[out_off[k]..out_off[k + 1]]`, both sorted and deduplicated.
/// The slabs are already in the shared form the graph keeps, so
/// [`DirectedGraph::from_sorted_parts`] takes them over without a copy.
pub struct AdjacencyParts {
    /// Distinct node ids, ascending.
    pub ids: Vec<NodeId>,
    /// `ids.len() + 1` exclusive prefix offsets into `in_slab`.
    pub in_off: Vec<usize>,
    /// All in-neighbors, concatenated in node order.
    pub in_slab: Arc<[NodeId]>,
    /// `ids.len() + 1` exclusive prefix offsets into `out_slab`.
    pub out_off: Vec<usize>,
    /// All out-neighbors, concatenated in node order.
    pub out_slab: Arc<[NodeId]>,
}

/// The allocation-free fill phase of the sort-first conversion.
///
/// `by_src` and `by_dst` must be fully sorted `(key, neighbor)` pair
/// arrays for the two edge orientations. A counting pass measures each
/// node's deduplicated run length, a prefix scan turns the counts into
/// slab offsets, and a scatter pass writes every node's neighbors into
/// its disjoint slab range — no per-node `Vec` is ever allocated, the
/// only heap traffic is a bounded number of whole-phase arrays.
pub fn adjacency_parts(
    by_src: &[(NodeId, NodeId)],
    by_dst: &[(NodeId, NodeId)],
    threads: usize,
) -> AdjacencyParts {
    debug_assert!(by_src.is_sorted());
    debug_assert!(by_dst.is_sorted());
    let out_runs = runs_of(by_src);
    let in_runs = runs_of(by_dst);

    // Merge the two run lists (both ascending by id) into the global node
    // list, remembering each node's run on either side.
    let mut nodes: Vec<(NodeId, Option<usize>, Option<usize>)> =
        Vec::with_capacity(out_runs.len().max(in_runs.len()));
    {
        let (mut i, mut j) = (0, 0);
        while i < out_runs.len() || j < in_runs.len() {
            match (out_runs.get(i), in_runs.get(j)) {
                (Some(o), Some(ir)) if o.id == ir.id => {
                    nodes.push((o.id, Some(i), Some(j)));
                    i += 1;
                    j += 1;
                }
                (Some(o), Some(ir)) if o.id < ir.id => {
                    nodes.push((o.id, Some(i), None));
                    i += 1;
                }
                (Some(_), Some(_)) => {
                    nodes.push((in_runs[j].id, None, Some(j)));
                    j += 1;
                }
                (Some(o), None) => {
                    nodes.push((o.id, Some(i), None));
                    i += 1;
                }
                (None, Some(ir)) => {
                    nodes.push((ir.id, None, Some(j)));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
    }
    let n = nodes.len();

    // Counting pass: prefix-scan each node's deduplicated in/out degree
    // (counted during `runs_of`, so no re-read of the pair arrays).
    let (in_off, out_off) = {
        let mut sp = ringo_trace::span!("convert.fill.count");
        sp.rows_in(by_src.len() + by_dst.len());
        sp.rows_out(n);
        let mut in_off = Vec::with_capacity(n + 1);
        let mut out_off = Vec::with_capacity(n + 1);
        let (mut isum, mut osum) = (0usize, 0usize);
        in_off.push(0);
        out_off.push(0);
        for &(_, orun, irun) in &nodes {
            isum += irun.map_or(0, |r| in_runs[r].distinct);
            osum += orun.map_or(0, |r| out_runs[r].distinct);
            in_off.push(isum);
            out_off.push(osum);
        }
        (in_off, out_off)
    };

    // Scatter pass: disjoint slab ranges per node, so concurrent writes
    // are contention-free and need no synchronization.
    let mut in_slab = new_slab(*in_off.last().unwrap());
    let mut out_slab = new_slab(*out_off.last().unwrap());
    {
        let mut sp = ringo_trace::span!("convert.fill.scatter");
        sp.rows_in(n);
        sp.rows_out(in_slab.len() + out_slab.len());
        let in_cell = DisjointSlice::new(Arc::get_mut(&mut in_slab).expect("fresh slab"));
        let out_cell = DisjointSlice::new(Arc::get_mut(&mut out_slab).expect("fresh slab"));
        parallel_for(n, threads, |_, range| {
            for k in range {
                let (_, orun, irun) = nodes[k];
                if let Some(r) = irun {
                    // SAFETY: offsets partition the slab; node k's range is
                    // written by exactly this iteration.
                    let dst = unsafe { in_cell.slice_mut(in_off[k], in_off[k + 1]) };
                    write_distinct(&by_dst[in_runs[r].start..in_runs[r].end], dst);
                }
                if let Some(r) = orun {
                    // SAFETY: as above, for the out slab.
                    let dst = unsafe { out_cell.slice_mut(out_off[k], out_off[k + 1]) };
                    write_distinct(&by_src[out_runs[r].start..out_runs[r].end], dst);
                }
            }
        });
    }

    AdjacencyParts {
        ids: nodes.into_iter().map(|(id, _, _)| id).collect(),
        in_off,
        in_slab,
        out_off,
        out_slab,
    }
}

/// Builds an undirected graph from two integer columns: each row adds the
/// undirected edge `{src, dst}` (duplicates and reciprocal rows collapse).
pub fn table_to_undirected(t: &Table, src_col: &str, dst_col: &str) -> Result<UndirectedGraph> {
    let mut sp = ringo_trace::span!("convert.table_to_undirected");
    sp.rows_in(t.n_rows());
    let src = t.int_col(src_col)?;
    let dst = t.int_col(dst_col)?;
    let threads = t.threads();

    // Symmetrize, then one sorted pass yields each node's neighbor run.
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(2 * src.len());
    for (&s, &d) in src.iter().zip(dst) {
        pairs.push((s, d));
        if s != d {
            pairs.push((d, s));
        }
    }
    radix_sort_pairs(&mut pairs, threads);
    let runs = runs_of(&pairs);
    let n = runs.len();

    // Slab fill, single orientation: count, prefix scan, scatter.
    let off = {
        let mut fsp = ringo_trace::span!("convert.fill.count");
        fsp.rows_in(pairs.len());
        fsp.rows_out(n);
        let mut off = Vec::with_capacity(n + 1);
        let mut sum = 0usize;
        off.push(0);
        for r in &runs {
            sum += r.distinct;
            off.push(sum);
        }
        off
    };
    let mut slab = new_slab(*off.last().unwrap());
    {
        let mut fsp = ringo_trace::span!("convert.fill.scatter");
        fsp.rows_in(n);
        fsp.rows_out(slab.len());
        let cell = DisjointSlice::new(Arc::get_mut(&mut slab).expect("fresh slab"));
        parallel_for(n, threads, |_, range| {
            for k in range {
                // SAFETY: offsets partition the slab; node k's range is
                // written by exactly this iteration.
                let dst = unsafe { cell.slice_mut(off[k], off[k + 1]) };
                write_distinct(&pairs[runs[k].start..runs[k].end], dst);
            }
        });
    }
    let ids: Vec<NodeId> = runs.iter().map(|r| r.id).collect();
    let g = UndirectedGraph::from_sorted_parts(ids, &off, slab);
    sp.rows_out(g.edge_count());
    Ok(g)
}

/// Builds a weighted digraph from an edge table: one edge per distinct
/// `(src, dst)` pair, with weights from `weight_col` (int or float)
/// accumulated across duplicate rows — or 1.0 per row when `weight_col`
/// is `None`, making the weight a multiplicity count.
pub fn table_to_weighted_graph(
    t: &Table,
    src_col: &str,
    dst_col: &str,
    weight_col: Option<&str>,
) -> Result<ringo_graph::WeightedDigraph> {
    let mut sp = ringo_trace::span!("convert.table_to_weighted_graph");
    sp.rows_in(t.n_rows());
    let src = t.int_col(src_col)?;
    let dst = t.int_col(dst_col)?;
    enum W<'a> {
        One,
        Int(&'a [i64]),
        Float(&'a [f64]),
    }
    let weights = match weight_col {
        None => W::One,
        Some(name) => {
            let i = t.schema().index_of(name)?;
            match t.column(i) {
                ringo_table::ColumnData::Int(v) => W::Int(v),
                ringo_table::ColumnData::Float(v) => W::Float(v),
                ringo_table::ColumnData::Str(_) => {
                    return Err(TableError::TypeMismatch {
                        column: name.to_string(),
                        expected: "int or float",
                        actual: "str",
                    })
                }
            }
        }
    };
    let mut g = ringo_graph::WeightedDigraph::new();
    for (row, (&s, &d)) in src.iter().zip(dst).enumerate() {
        let w = match &weights {
            W::One => 1.0,
            W::Int(v) => v[row] as f64,
            W::Float(v) => v[row],
        };
        g.add_edge(s, d, w);
    }
    sp.rows_out(g.edge_count());
    Ok(g)
}

/// Baseline for the ablation: builds the same graph with row-at-a-time
/// `add_edge` calls (binary-searched vector inserts, no parallelism).
pub fn table_to_graph_naive(t: &Table, src_col: &str, dst_col: &str) -> Result<DirectedGraph> {
    let src = t.int_col(src_col)?;
    let dst = t.int_col(dst_col)?;
    let mut g = DirectedGraph::new();
    for (&s, &d) in src.iter().zip(dst) {
        g.add_edge(s, d);
    }
    Ok(g)
}

/// Exports a directed graph as a two-column edge table (`src`, `dst`),
/// partitioning nodes among `threads` workers which write pre-assigned
/// output partitions.
pub fn graph_to_edge_table(g: &DirectedGraph, threads: usize) -> Table {
    use ringo_graph::DirectedTopology;
    let mut sp = ringo_trace::span!("convert.graph_to_edge_table");
    sp.rows_in(g.edge_count());
    let n_slots = g.n_slots();
    let parts: Vec<(Vec<i64>, Vec<i64>)> = parallel_map(n_slots, threads, |range| {
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for slot in range {
            if let Some(id) = g.slot_id(slot) {
                for &nbr in g.out_nbrs_of_slot(slot) {
                    src.push(id);
                    dst.push(nbr);
                }
            }
        }
        (src, dst)
    });
    let total: usize = parts.iter().map(|(s, _)| s.len()).sum();
    let mut src = Vec::with_capacity(total);
    let mut dst = Vec::with_capacity(total);
    for (s, d) in parts {
        src.extend(s);
        dst.extend(d);
    }
    let schema = Schema::new([("src", ColumnType::Int), ("dst", ColumnType::Int)]);
    let mut t = Table::from_parts(
        schema,
        vec![ColumnData::Int(src), ColumnData::Int(dst)],
        StringPool::new(),
    )
    .expect("equal-length int columns");
    t.set_threads(threads);
    sp.rows_out(t.n_rows());
    t
}

/// Exports a node table (`node`, `in_deg`, `out_deg`), one row per node.
pub fn graph_to_node_table(g: &DirectedGraph, threads: usize) -> Table {
    use ringo_graph::DirectedTopology;
    let mut sp = ringo_trace::span!("convert.graph_to_node_table");
    sp.rows_in(g.node_count());
    let n_slots = g.n_slots();
    let parts: Vec<(Vec<i64>, Vec<i64>, Vec<i64>)> = parallel_map(n_slots, threads, |range| {
        let mut ids = Vec::new();
        let mut ind = Vec::new();
        let mut outd = Vec::new();
        for slot in range {
            if let Some(id) = g.slot_id(slot) {
                ids.push(id);
                ind.push(g.in_nbrs_of_slot(slot).len() as i64);
                outd.push(g.out_nbrs_of_slot(slot).len() as i64);
            }
        }
        (ids, ind, outd)
    });
    let total: usize = parts.iter().map(|(v, _, _)| v.len()).sum();
    let mut ids = Vec::with_capacity(total);
    let mut ind = Vec::with_capacity(total);
    let mut outd = Vec::with_capacity(total);
    for (a, b, c) in parts {
        ids.extend(a);
        ind.extend(b);
        outd.extend(c);
    }
    let schema = Schema::new([
        ("node", ColumnType::Int),
        ("in_deg", ColumnType::Int),
        ("out_deg", ColumnType::Int),
    ]);
    let mut t = Table::from_parts(
        schema,
        vec![
            ColumnData::Int(ids),
            ColumnData::Int(ind),
            ColumnData::Int(outd),
        ],
        StringPool::new(),
    )
    .expect("equal-length int columns");
    t.set_threads(threads);
    sp.rows_out(t.n_rows());
    t
}

/// Builds a table mapping node ids to float scores — the paper's
/// `TableFromHashMap` used to pull algorithm results back into table land.
pub fn scores_to_table(scores: &[(NodeId, f64)], id_col: &str, score_col: &str) -> Table {
    let mut sp = ringo_trace::span!("convert.scores_to_table");
    sp.rows_in(scores.len());
    sp.rows_out(scores.len());
    let schema = Schema::new([
        (id_col.to_string(), ColumnType::Int),
        (score_col.to_string(), ColumnType::Float),
    ]);
    let ids: Vec<i64> = scores.iter().map(|(id, _)| *id).collect();
    let vals: Vec<f64> = scores.iter().map(|(_, v)| *v).collect();
    Table::from_parts(
        schema,
        vec![ColumnData::Int(ids), ColumnData::Float(vals)],
        StringPool::new(),
    )
    .expect("equal-length columns")
}

/// One maximal run of equal first elements in a sorted pair array:
/// `pairs[start..end]` all share `id`, of which `distinct` have distinct
/// second elements. Counting distinct neighbors during the same pass
/// that finds the boundaries saves a full re-read of the pair array.
struct Run {
    id: NodeId,
    start: usize,
    end: usize,
    distinct: usize,
}

fn runs_of(pairs: &[(NodeId, NodeId)]) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut start = 0usize;
    while start < pairs.len() {
        let id = pairs[start].0;
        let mut end = start + 1;
        let mut distinct = 1usize;
        while end < pairs.len() && pairs[end].0 == id {
            if pairs[end].1 != pairs[end - 1].1 {
                distinct += 1;
            }
            end += 1;
        }
        runs.push(Run {
            id,
            start,
            end,
            distinct,
        });
        start = end;
    }
    runs
}

/// Writes the distinct second elements of a sorted run into `out`, which
/// must have exactly `distinct_count(run)` slots.
fn write_distinct(run: &[(NodeId, NodeId)], out: &mut [NodeId]) {
    let mut w = 0usize;
    let mut prev = None;
    for &(_, n) in run {
        if prev != Some(n) {
            out[w] = n;
            w += 1;
            prev = Some(n);
        }
    }
    debug_assert_eq!(w, out.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_gen::edges_to_table;

    fn table_of(edges: &[(i64, i64)]) -> Table {
        edges_to_table(edges)
    }

    #[test]
    fn sort_first_matches_naive_small() {
        let t = table_of(&[(1, 2), (2, 3), (1, 2), (3, 1), (3, 3)]);
        let fast = table_to_graph(&t, "src", "dst").unwrap();
        let naive = table_to_graph_naive(&t, "src", "dst").unwrap();
        assert_eq!(fast.node_count(), naive.node_count());
        assert_eq!(fast.edge_count(), naive.edge_count());
        for id in naive.node_ids() {
            assert_eq!(fast.out_nbrs(id), naive.out_nbrs(id), "out of {id}");
            assert_eq!(fast.in_nbrs(id), naive.in_nbrs(id), "in of {id}");
        }
    }

    #[test]
    fn sort_first_matches_naive_random() {
        for (scale, n_edges, thread_counts) in
            [(9, 5_000, &[1usize, 4][..]), (10, 8_000, &[1, 2, 4][..])]
        {
            let edges = ringo_gen::rmat(&ringo_gen::RmatConfig {
                scale,
                edges: n_edges,
                ..Default::default()
            });
            let mut t = table_of(&edges);
            for &threads in thread_counts {
                t.set_threads(threads);
                let fast = table_to_graph(&t, "src", "dst").unwrap();
                let naive = table_to_graph_naive(&t, "src", "dst").unwrap();
                assert_eq!(fast.node_count(), naive.node_count());
                assert_eq!(fast.edge_count(), naive.edge_count());
                for id in naive.node_ids() {
                    assert_eq!(fast.out_nbrs(id), naive.out_nbrs(id));
                    assert_eq!(fast.in_nbrs(id), naive.in_nbrs(id));
                }
            }
        }
    }

    #[test]
    fn empty_table_empty_graph() {
        let t = table_of(&[]);
        let g = table_to_graph(&t, "src", "dst").unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn bad_columns_error() {
        let t = table_of(&[(1, 2)]);
        assert!(table_to_graph(&t, "nope", "dst").is_err());
        assert!(table_to_graph(&t, "src", "nope").is_err());
    }

    #[test]
    fn undirected_conversion_symmetrizes() {
        let t = table_of(&[(1, 2), (2, 1), (2, 3), (4, 4)]);
        let g = table_to_undirected(&t, "src", "dst").unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3, "1-2 merged, 2-3, loop 4");
        assert_eq!(g.nbrs(2), &[1, 3]);
        assert_eq!(g.nbrs(4), &[4]);
    }

    #[test]
    fn graph_roundtrip_table_graph_table() {
        let edges = vec![(1i64, 2i64), (2, 3), (3, 1), (1, 3)];
        let t = table_of(&edges);
        let g = table_to_graph(&t, "src", "dst").unwrap();
        let back = graph_to_edge_table(&g, 3);
        assert_eq!(back.n_rows(), 4);
        let mut pairs: Vec<(i64, i64)> = back
            .int_col("src")
            .unwrap()
            .iter()
            .zip(back.int_col("dst").unwrap())
            .map(|(a, b)| (*a, *b))
            .collect();
        pairs.sort_unstable();
        let mut expect = edges.clone();
        expect.sort_unstable();
        assert_eq!(pairs, expect);
        // And back to a graph again: identical topology.
        let g2 = table_to_graph(&back, "src", "dst").unwrap();
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.node_count(), g.node_count());
    }

    #[test]
    fn node_table_has_degrees() {
        let t = table_of(&[(1, 2), (1, 3), (2, 3)]);
        let g = table_to_graph(&t, "src", "dst").unwrap();
        let nt = graph_to_node_table(&g, 2);
        assert_eq!(nt.n_rows(), 3);
        let find = |id: i64| -> (i64, i64) {
            let ids = nt.int_col("node").unwrap();
            let row = ids.iter().position(|&x| x == id).unwrap();
            (
                nt.int_col("in_deg").unwrap()[row],
                nt.int_col("out_deg").unwrap()[row],
            )
        };
        assert_eq!(find(1), (0, 2));
        assert_eq!(find(3), (2, 0));
    }

    #[test]
    fn scores_roundtrip() {
        let t = scores_to_table(&[(5, 0.25), (7, 0.75)], "User", "Score");
        assert_eq!(t.int_col("User").unwrap(), &[5, 7]);
        assert_eq!(t.float_col("Score").unwrap(), &[0.25, 0.75]);
    }

    #[test]
    fn weighted_conversion_counts_multiplicity() {
        let t = table_of(&[(1, 2), (1, 2), (1, 2), (2, 3)]);
        let g = table_to_weighted_graph(&t, "src", "dst", None).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.weight(1, 2), Some(3.0));
        assert_eq!(g.weight(2, 3), Some(1.0));
    }

    #[test]
    fn weighted_conversion_sums_weight_column() {
        let mut t = table_of(&[(1, 2), (1, 2)]);
        t.add_float_column("w", vec![0.25, 0.5]).unwrap();
        let g = table_to_weighted_graph(&t, "src", "dst", Some("w")).unwrap();
        assert_eq!(g.weight(1, 2), Some(0.75));
        // Int weight columns widen.
        let mut t2 = table_of(&[(5, 6)]);
        t2.add_int_column("n", vec![7]).unwrap();
        let g2 = table_to_weighted_graph(&t2, "src", "dst", Some("n")).unwrap();
        assert_eq!(g2.weight(5, 6), Some(7.0));
        // String weight columns rejected.
        let mut t3 = table_of(&[(1, 2)]);
        t3.add_str_column("s", &["x"]).unwrap();
        assert!(table_to_weighted_graph(&t3, "src", "dst", Some("s")).is_err());
    }

    #[test]
    fn parallel_and_sequential_exports_agree() {
        let edges = ringo_gen::rmat(&ringo_gen::RmatConfig {
            scale: 8,
            edges: 2_000,
            ..Default::default()
        });
        let t = table_of(&edges);
        let g = table_to_graph(&t, "src", "dst").unwrap();
        let seq = graph_to_edge_table(&g, 1);
        let par = graph_to_edge_table(&g, 8);
        assert_eq!(seq.int_col("src").unwrap(), par.int_col("src").unwrap());
        assert_eq!(seq.int_col("dst").unwrap(), par.int_col("dst").unwrap());
    }
}
