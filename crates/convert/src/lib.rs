//! Conversions between Ringo tables and graphs (paper §2.4).
//!
//! "Fast conversions between graph and table objects are essential for
//! data exploration tasks involving graphs." Two directions:
//!
//! * **Table → graph** ([`table_to_graph`], [`table_to_undirected`]): the
//!   paper's "sort-first" algorithm — sort the edge pairs in parallel,
//!   compute each node's neighbor counts from the sorted runs, and
//!   install the neighbor vectors into the graph's nodes (the paper's
//!   node hash table; here the sorted ids are the index).
//!   Here the whole pipeline runs on **packed 8-byte keys**: the radix
//!   sorter ([`radix_sort_columns`]) reads the two columns where they
//!   lie, packs each pair's varying bits into one `u64` and returns the
//!   keys sorted, each once. A counting pass walks them in parallel — the
//!   key's high part is the node — and yields the ascending node ids and
//!   each node's slab range. Node `k` of the ascending ids takes slot `k`,
//!   so a neighbour is stored as its *rank* among the node ids: a rank
//!   pass translates every neighbour through a bucket array over the ids
//!   ([`Rank`] — no hash probe) and writes its slot straight into a shared
//!   adjacency slab at its final position; the rank then becomes the
//!   graph's id index. No tuple array, no per-node `Vec`, no table copy.
//!   Sorting parallelizes cleanly and the passes write disjoint slab
//!   ranges, so "while concurrent access is still performed, there is no
//!   contention among the threads". Ids whose varying bits need more
//!   than 64 (both signs, full-range ids) take the same pipeline over
//!   16-byte `u128` keys. A naive row-at-a-time baseline
//!   ([`table_to_graph_naive`]) is kept as the tests' oracle.
//! * **Graph → table** ([`graph_to_edge_table`], [`graph_to_node_table`]):
//!   "easily performed in parallel by partitioning the graph's nodes or
//!   edges among worker threads, pre-allocating the output table, and
//!   assigning a corresponding partition in the output table to each
//!   thread."

#![warn(missing_docs)]

use ringo_concurrent::parallel::parallel_for_each_chunk_mut;
use ringo_concurrent::{
    parallel_for, parallel_map, radix_sort_columns, DisjointSlice, SortedPairs,
};
use ringo_graph::{
    new_slab, DirectedGraph, DirectedTopology, Graph, NodeId, Rank, UndirectedGraph,
    WeightedDigraph,
};
use ringo_table::{ColumnData, ColumnType, Schema, StringPool, Table, TableError};
use ringo_trace::Span;
use std::sync::Arc;

/// Result alias reusing the table error type (conversions validate column
/// names/types exactly like table operators).
pub type Result<T> = std::result::Result<T, TableError>;

/// Builds a directed graph from two integer columns of `t` using the
/// sort-first algorithm. Duplicate rows collapse to one edge; self-loops
/// are preserved. Parallelism follows `t.threads()`. Nodes take slots in
/// ascending id order.
///
/// # Errors
/// Unknown or non-integer columns, and more than `u32::MAX` distinct ids
/// (slots are `u32`).
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
    table_to_graph_threads(t, src_col, dst_col, t.threads())
}

/// [`table_to_graph`] on `threads` workers, whatever `t.threads()` says —
/// what a caller with its own thread setting uses instead of cloning the
/// table to change the table's.
pub fn table_to_graph_threads(
    t: &Table,
    src_col: &str,
    dst_col: &str,
    threads: usize,
) -> Result<DirectedGraph> {
    let mut sp = ringo_trace::span!("convert.table_to_graph");
    sp.rows_in(t.n_rows());
    let src = t.int_col(src_col)?;
    let dst = t.int_col(dst_col)?;

    // A neighbour's slot is its rank among all node ids — the union of the
    // two orientations' leading ids — so both sorts and both counting
    // passes come before either slab is written.
    let out_keys = sorted_edges(src, dst, false, threads);
    let out = Runs::count(&out_keys, threads);
    let in_keys = sorted_edges(dst, src, false, threads);
    let inn = Runs::count(&in_keys, threads);

    // Merge the two ascending id lists into the graph's node list. A node
    // missing from one side gets an empty range there: the offset it is
    // handed is the next present node's.
    let cap = out.ids.len() + inn.ids.len();
    let mut ids = Vec::with_capacity(cap);
    let mut out_off = Vec::with_capacity(cap + 1);
    let mut in_off = Vec::with_capacity(cap + 1);
    let (mut i, mut j) = (0, 0);
    loop {
        out_off.push(out.off[i]);
        in_off.push(inn.off[j]);
        let id = match (out.ids.get(i), inn.ids.get(j)) {
            (Some(&o), Some(&n)) => o.min(n),
            (Some(&o), None) => o,
            (None, Some(&n)) => n,
            (None, None) => break,
        };
        ids.push(id);
        i += usize::from(out.ids.get(i) == Some(&id));
        j += usize::from(inn.ids.get(j) == Some(&id));
    }
    // The merged arrays take over from the runs' own ids and offsets
    // before the rank passes, which hold both orientations' keys.
    out_off.shrink_to_fit();
    in_off.shrink_to_fit();
    drop((out, inn));
    let inn = Some((in_keys, in_off));
    ranked_graph(sp, ids, (out_keys, out_off), inn, threads)
}

/// Builds an undirected graph from two integer columns: each row adds the
/// undirected edge `{src, dst}` (duplicates and reciprocal rows collapse).
/// Parallelism follows `t.threads()`; errors as [`table_to_graph`].
pub fn table_to_undirected(t: &Table, src_col: &str, dst_col: &str) -> Result<UndirectedGraph> {
    table_to_undirected_threads(t, src_col, dst_col, t.threads())
}

/// [`table_to_undirected`] on `threads` workers, whatever `t.threads()`
/// says.
pub fn table_to_undirected_threads(
    t: &Table,
    src_col: &str,
    dst_col: &str,
    threads: usize,
) -> Result<UndirectedGraph> {
    let mut sp = ringo_trace::span!("convert.table_to_undirected");
    sp.rows_in(t.n_rows());
    let src = t.int_col(src_col)?;
    let dst = t.int_col(dst_col)?;

    // The symmetric sort yields both orientations of every row, so one
    // pass over the keys yields each node's whole neighbor run, and every
    // neighbour is some run's node.
    let keys = sorted_edges(src, dst, true, threads);
    let adj = Runs::count(&keys, threads);
    ranked_graph(sp, adj.ids, (keys, adj.off), None, threads)
}

/// The tail both conversions share. It ranks the node `ids` (ascending,
/// distinct; more than `u32::MAX` is an error, since ranks are `u32`
/// slots), then ranks each orientation's keys into its slab, in-rows
/// first. `out` and `inn` are a side's keys and slab offsets; the keys
/// are freed once their slab is written. The rank becomes the graph's id
/// index, and `sp`, the conversion's span, closes here.
fn ranked_graph<const DIRECTED: bool>(
    mut sp: Span,
    ids: Vec<NodeId>,
    out: (SortedPairs, Vec<usize>),
    inn: Option<(SortedPairs, Vec<usize>)>,
    threads: usize,
) -> Result<Graph<DIRECTED>> {
    if u32::try_from(ids.len()).is_err() {
        return Err(TableError::InvalidArgument(format!(
            "{} distinct node ids; a graph holds at most {} (slots are u32)",
            ids.len(),
            u32::MAX
        )));
    }
    let rank = Rank::new(ids);
    let inn = inn.map(|(keys, off)| (off, rank_slab(&keys, &rank, threads)));
    let (keys, out_off) = out;
    let out_slab = rank_slab(&keys, &rank, threads);
    drop(keys);
    let g = Graph::from_ranked_parts(rank, (out_off, out_slab), inn);
    sp.rows_out(g.edge_count());
    Ok(g)
}

/// The pairs `(a[i], b[i])` sorted ([`radix_sort_columns`]), each once:
/// a repeated row is one edge, so the passes after hold no repeats.
fn sorted_edges(a: &[NodeId], b: &[NodeId], symmetric: bool, threads: usize) -> SortedPairs {
    let mut sorted = radix_sort_columns(a, b, symmetric, threads);
    match &mut sorted {
        SortedPairs::U64(keys, _) => {
            keys.dedup();
            keys.shrink_to_fit();
        }
        SortedPairs::U128(keys, _) => {
            keys.dedup();
            keys.shrink_to_fit();
        }
    }
    sorted
}

/// One orientation's distinct sorted keys in runs: node `k` (ascending
/// `ids`) owns the keys at `off[k]..off[k + 1]`, which is also its slab
/// range.
struct Runs {
    ids: Vec<NodeId>,
    off: Vec<usize>,
}

impl Runs {
    /// The counting pass of the sort-first fill, over whichever word (`u64`
    /// or `u128`) the pairs were sorted in. Workers take equal shares of
    /// the keys, wherever node runs begin and end (a hub's run is split
    /// like any other stretch), and each notes the nodes it begins.
    fn count(sorted: &SortedPairs, threads: usize) -> Self {
        match sorted {
            SortedPairs::U64(keys, codec) => Self::of(keys, |k| codec.first(k), threads),
            SortedPairs::U128(keys, codec) => Self::of(keys, |k| codec.first(k), threads),
        }
    }

    fn of<K: Copy + Sync>(keys: &[K], node: impl Fn(K) -> NodeId + Sync, threads: usize) -> Self {
        let mut sp = ringo_trace::span!("convert.fill.count");
        sp.rows_in(keys.len());
        let heads = parallel_map(keys.len(), threads, |range| {
            let begins = range.filter(|&i| i == 0 || node(keys[i]) != node(keys[i - 1]));
            begins.map(|i| (node(keys[i]), i)).collect::<Vec<_>>()
        });
        let n = heads.iter().map(Vec::len).sum();
        let (mut ids, mut off) = (Vec::with_capacity(n), Vec::with_capacity(n + 1));
        for (id, at) in heads.into_iter().flatten() {
            ids.push(id);
            off.push(at);
        }
        off.push(keys.len());
        sp.rows_out(n);
        Self { ids, off }
    }
}

/// The rank pass: the slab of every key's neighbour slot,
/// `rank.of(neighbour)`, at the key's own position.
fn rank_slab(sorted: &SortedPairs, rank: &Rank, threads: usize) -> Arc<[u32]> {
    match sorted {
        SortedPairs::U64(keys, c) => rank_keys(keys, |k| c.second(k), rank, threads),
        SortedPairs::U128(keys, c) => rank_keys(keys, |k| c.second(k), rank, threads),
    }
}

fn rank_keys<K: Copy + Sync>(
    keys: &[K],
    nbr: impl Fn(K) -> NodeId + Sync,
    rank: &Rank,
    threads: usize,
) -> Arc<[u32]> {
    let mut sp = ringo_trace::span!("convert.fill.rank");
    sp.rows_in(keys.len());
    sp.rows_out(rank.ids().len());
    let mut slab = new_slab(keys.len());
    let buf = Arc::get_mut(&mut slab).expect("fresh slab");
    parallel_for_each_chunk_mut(buf, threads, |_, start, chunk| {
        let mut scanned = 0u64;
        for (slot, &key) in chunk.iter_mut().zip(&keys[start..]) {
            let (at, compared) = rank.find(nbr(key));
            *slot = at.expect("every neighbour is a ranked node");
            scanned += u64::from(compared);
        }
        ringo_trace::counter("convert.rank.scanned").add(scanned);
    });
    slab
}

/// Builds a weighted digraph from an edge table: one edge per distinct
/// `(src, dst)` pair, with weights from `weight_col` (int or float)
/// accumulated across duplicate rows — or 1.0 per row when `weight_col`
/// is `None`, making the weight a multiplicity count. Parallelism
/// follows `t.threads()`.
///
/// # Errors
/// As [`table_to_graph`]; a string weight column; and a weight that is
/// negative or NaN, which no weighted kernel can take.
pub fn table_to_weighted_graph(
    t: &Table,
    src_col: &str,
    dst_col: &str,
    weight_col: Option<&str>,
) -> Result<WeightedDigraph> {
    table_to_weighted_graph_threads(t, src_col, dst_col, weight_col, t.threads())
}

/// [`table_to_weighted_graph`] on `threads` workers, whatever
/// `t.threads()` says: [`table_to_graph_threads`]'s edges, weighed by one
/// pass over the rows in row order
/// ([`WeightedDigraph::from_out_weights`]), so each weight is the left
/// fold of its rows — `add_edge` row by row — at any thread count.
pub fn table_to_weighted_graph_threads(
    t: &Table,
    src_col: &str,
    dst_col: &str,
    weight_col: Option<&str>,
    threads: usize,
) -> Result<WeightedDigraph> {
    let mut sp = ringo_trace::span!("convert.table_to_weighted_graph");
    sp.rows_in(t.n_rows());
    let weight = match weight_col {
        None => Box::new(|_| 1.0),
        Some(name) => t.numeric_col(name)?,
    };
    // Negative or NaN: `-0.0` and `+inf` are in the range.
    if let Some(row) = (0..t.n_rows()).find(|&row| !(0.0..).contains(&weight(row))) {
        return Err(TableError::InvalidArgument(format!(
            "weight column {}: row {row} holds {}; weights must be non-negative",
            weight_col.unwrap_or_default(),
            weight(row)
        )));
    }
    let g = table_to_graph_threads(t, src_col, dst_col, threads)?;
    let (src, dst) = (t.int_col(src_col)?, t.int_col(dst_col)?);
    let rows = src.iter().zip(dst).enumerate();
    let g = WeightedDigraph::from_out_weights(g, rows.map(|(row, (&s, &d))| (s, d, weight(row))));
    sp.rows_out(g.edge_count());
    Ok(g)
}

/// Baseline for the ablation: builds the same graph with row-at-a-time
/// `add_edge` calls (binary-searched vector inserts, no parallelism),
/// after adding the nodes in ascending id order so slots match
/// [`table_to_graph`]'s.
pub fn table_to_graph_naive(t: &Table, src_col: &str, dst_col: &str) -> Result<DirectedGraph> {
    let src = t.int_col(src_col)?;
    let dst = t.int_col(dst_col)?;
    let mut ids: Vec<NodeId> = src.iter().chain(dst).copied().collect();
    ids.sort_unstable();
    ids.dedup();
    let mut g = DirectedGraph::with_capacity(ids.len());
    for id in ids {
        g.add_node(id);
    }
    for (&s, &d) in src.iter().zip(dst) {
        g.add_edge(s, d);
    }
    Ok(g)
}

/// Exports a directed graph as a two-column edge table (`src`, `dst`) in
/// slot order. The per-slot out-degrees are prefix-summed, the two
/// columns are allocated once at their final size, and each of `threads`
/// workers writes the rows of its own slots, mapping each neighbour slot
/// to its id through a slot-indexed id column.
pub fn graph_to_edge_table(g: &DirectedGraph, threads: usize) -> Table {
    let mut sp = ringo_trace::span!("convert.graph_to_edge_table");
    sp.rows_in(g.edge_count());
    let n_slots = g.n_slots();
    let (first_row, total) = share_starts(n_slots, threads, |slot| g.out_row(slot).len());
    // Vacant slots keep 0: no row names them.
    let id_of: Vec<NodeId> = (0..n_slots).map(|s| g.slot_id(s).unwrap_or(0)).collect();
    let mut src = vec![0i64; total];
    let mut dst = vec![0i64; total];
    {
        let src_cell = DisjointSlice::new(&mut src);
        let dst_cell = DisjointSlice::new(&mut dst);
        parallel_for(n_slots, threads, |w, range| {
            let mut row = first_row[w];
            for slot in range {
                let nbrs = g.out_row(slot);
                let end = row + nbrs.len();
                // SAFETY: share `w` owns the rows from `first_row[w]` up
                // to the next share's, exactly its slots' out-degrees.
                let (s, d) =
                    unsafe { (src_cell.slice_mut(row, end), dst_cell.slice_mut(row, end)) };
                s.fill(id_of[slot]);
                for (o, &n) in d.iter_mut().zip(nbrs) {
                    *o = id_of[n as usize];
                }
                row = end;
            }
        });
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

/// Exports a node table (`node`, `in_deg`, `out_deg`), one row per node
/// in slot order, written the same way as [`graph_to_edge_table`].
pub fn graph_to_node_table(g: &DirectedGraph, threads: usize) -> Table {
    let mut sp = ringo_trace::span!("convert.graph_to_node_table");
    sp.rows_in(g.node_count());
    let n_slots = g.n_slots();
    let (first_row, total) = share_starts(n_slots, threads, |slot| {
        usize::from(g.slot_id(slot).is_some())
    });
    let mut ids = vec![0i64; total];
    let mut ind = vec![0i64; total];
    let mut outd = vec![0i64; total];
    {
        let ids_cell = DisjointSlice::new(&mut ids);
        let ind_cell = DisjointSlice::new(&mut ind);
        let outd_cell = DisjointSlice::new(&mut outd);
        parallel_for(n_slots, threads, |w, range| {
            let mut row = first_row[w];
            for slot in range {
                let Some(id) = g.slot_id(slot) else { continue };
                // SAFETY: share `w` owns one row per live slot of its
                // range, starting at `first_row[w]`.
                unsafe {
                    ids_cell.write(row, id);
                    ind_cell.write(row, g.in_row(slot).len() as i64);
                    outd_cell.write(row, g.out_row(slot).len() as i64);
                }
                row += 1;
            }
        });
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

/// Where each `parallel_for(n_slots, threads, …)` share's output begins
/// when slot `s` produces `rows(s)` rows, and the total row count.
fn share_starts(
    n_slots: usize,
    threads: usize,
    rows: impl Fn(usize) -> usize + Sync,
) -> (Vec<usize>, usize) {
    let mut starts = parallel_map(n_slots, threads, |range| range.map(&rows).sum::<usize>());
    let mut total = 0usize;
    for s in &mut starts {
        total += std::mem::replace(s, total);
    }
    (starts, total)
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

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_gen::edges_to_table;

    fn table_of(edges: &[(i64, i64)]) -> Table {
        edges_to_table(edges)
    }

    /// Same ids in the same slots, same rows.
    fn assert_same_layout(fast: &DirectedGraph, naive: &DirectedGraph) {
        assert_eq!(fast.node_count(), naive.node_count());
        assert_eq!(fast.edge_count(), naive.edge_count());
        assert_eq!(fast.n_slots(), naive.n_slots());
        for s in 0..naive.n_slots() {
            assert_eq!(fast.slot_id(s), naive.slot_id(s), "id of slot {s}");
            assert_eq!(fast.out_row(s), naive.out_row(s), "out-row {s}");
            assert_eq!(fast.in_row(s), naive.in_row(s), "in-row {s}");
        }
    }

    #[test]
    fn sort_first_matches_naive_small() {
        let t = table_of(&[(1, 2), (2, 3), (1, 2), (3, 1), (3, 3)]);
        let fast = table_to_graph(&t, "src", "dst").unwrap();
        let naive = table_to_graph_naive(&t, "src", "dst").unwrap();
        assert_same_layout(&fast, &naive);
        assert_eq!(fast.out_nbrs(3), &[1, 3]);
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
                assert_same_layout(&fast, &naive);
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
    fn weighted_conversion_rejects_negative_and_nan_weights() {
        let mut t = table_of(&[(1, 2), (2, 3), (3, 1)]);
        t.add_int_column("count", vec![1, -2, 3]).unwrap();
        t.add_float_column("score", vec![0.5, 1.0, -0.25]).unwrap();
        t.add_float_column("ratio", vec![f64::NAN, 1.0, 1.0])
            .unwrap();
        for (col, row) in [("count", 1), ("score", 2), ("ratio", 0)] {
            let err = table_to_weighted_graph(&t, "src", "dst", Some(col)).unwrap_err();
            let TableError::InvalidArgument(msg) = &err else {
                panic!("{col}: {err:?}")
            };
            assert!(
                msg.contains(col) && msg.contains(&format!("row {row} ")),
                "{msg}"
            );
        }
    }

    #[test]
    fn weighted_conversion_accepts_signed_zeros_and_infinity() {
        let mut t = table_of(&[(1, 2), (1, 2), (2, 3), (3, 3), (3, 3)]);
        let w = vec![-0.0, -0.0, 0.0, f64::INFINITY, 1.0];
        t.add_float_column("w", w).unwrap();
        let g = table_to_weighted_graph(&t, "src", "dst", Some("w")).unwrap();
        let bits = |s, d| g.weight(s, d).map(f64::to_bits);
        assert_eq!(bits(1, 2), Some((-0.0f64).to_bits()), "-0.0 + -0.0");
        assert_eq!(bits(2, 3), Some(0.0f64.to_bits()));
        assert_eq!(g.weight(3, 3), Some(f64::INFINITY));
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
