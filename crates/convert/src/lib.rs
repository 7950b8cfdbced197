//! Conversions between Ringo tables and graphs (paper §2.4).
//!
//! "Fast conversions between graph and table objects are essential for
//! data exploration tasks involving graphs." Two directions:
//!
//! * **Table → graph** ([`table_to_graph`], [`table_to_undirected`]): the
//!   paper's "sort-first" algorithm — sort the edge pairs in parallel,
//!   compute each node's neighbor counts from the sorted runs, and
//!   install the neighbor vectors into the graph's node hash table.
//!   Here the whole pipeline runs on **packed 8-byte keys**: the radix
//!   sorter ([`radix_sort_columns`]) reads the two columns where they
//!   lie, packs each pair's varying bits into one `u64` and returns the
//!   keys sorted. A counting pass walks them in parallel — the key's high
//!   part is the node, `key != previous` is the dedup — and yields the
//!   ascending node ids and each node's slab range. Node `k` of the
//!   ascending ids takes slot `k`, so a neighbour is stored as its *rank*
//!   among the node ids: a rank pass translates every distinct neighbour
//!   through a bucket array over the ids (`Rank` — no hash probe) and
//!   writes its slot straight into a shared adjacency slab at its final
//!   position. No tuple array, no per-node `Vec`, no copy of the table.
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

use ringo_concurrent::{
    parallel_for, parallel_map, radix_sort_columns, DisjointSlice, SortedPairs,
};
use ringo_graph::{new_slab, DirectedGraph, DirectedTopology, NodeId, UndirectedGraph};
use ringo_table::{ColumnData, ColumnType, Schema, StringPool, Table, TableError};
use std::ops::Range;
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
    let out_keys = radix_sort_columns(src, dst, false, threads);
    let out = Runs::count(&out_keys, threads);
    let in_keys = radix_sort_columns(dst, src, false, threads);
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
    ids.shrink_to_fit();
    out_off.shrink_to_fit();
    in_off.shrink_to_fit();
    let (out, inn) = (out.merged(), inn.merged());

    let rank = Rank::new(&ids)?;
    let in_slab = inn.rank_slab(&in_keys, &rank, threads);
    drop(in_keys);
    let out_slab = out.rank_slab(&out_keys, &rank, threads);
    drop(out_keys);
    let g = DirectedGraph::from_sorted_parts(ids, &in_off, in_slab, &out_off, out_slab);
    sp.rows_out(g.edge_count());
    Ok(g)
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
    let keys = radix_sort_columns(src, dst, true, threads);
    let adj = Runs::count(&keys, threads);
    let rank = Rank::new(&adj.ids)?;
    let slab = adj.rank_slab(&keys, &rank, threads);
    drop(keys);
    let g = UndirectedGraph::from_sorted_parts(adj.ids, &adj.off, slab);
    sp.rows_out(g.edge_count());
    Ok(g)
}

/// One orientation's sorted keys in runs: node `k` (ascending `ids`) owns
/// the distinct keys that fill slab positions `off[k]..off[k + 1]`, and
/// the distinct keys of `parallel_for` share `w` start at slab position
/// `starts[w]`.
struct Runs {
    ids: Vec<NodeId>,
    off: Vec<usize>,
    starts: Vec<usize>,
}

impl Runs {
    /// The counting pass of the sort-first fill, over whichever word (`u64`
    /// or `u128`) the pairs were sorted in. Workers take equal shares of
    /// the keys, wherever node runs begin and end (a hub's run is split
    /// like any other stretch); each counts its distinct keys and notes
    /// the nodes it begins, and a prefix scan over the shares places them.
    fn count(sorted: &SortedPairs, threads: usize) -> Self {
        match sorted {
            SortedPairs::U64(keys, codec) => Self::of(keys, |k| codec.first(k), threads),
            SortedPairs::U128(keys, codec) => Self::of(keys, |k| codec.first(k), threads),
        }
    }

    fn of<K: Copy + PartialEq + Sync>(
        keys: &[K],
        node: impl Fn(K) -> NodeId + Sync,
        threads: usize,
    ) -> Self {
        let mut sp = ringo_trace::span!("convert.fill.count");
        sp.rows_in(keys.len());
        // Per share: each node begun with its distinct keys before it, and
        // the share's distinct keys.
        let shares = parallel_map(keys.len(), threads, |range| {
            let mut heads: Vec<(NodeId, usize)> = Vec::new();
            let mut distinct = 0usize;
            for_each_distinct(keys, range, &node, |key, new_node| {
                if new_node {
                    heads.push((node(key), distinct));
                }
                distinct += 1;
            });
            (heads, distinct)
        });
        let n = shares.iter().map(|(heads, _)| heads.len()).sum();
        let mut runs = Self {
            ids: Vec::with_capacity(n),
            off: Vec::with_capacity(n + 1),
            starts: Vec::with_capacity(shares.len()),
        };
        let mut m = 0usize;
        for (heads, distinct) in shares {
            for (id, before) in heads {
                runs.ids.push(id);
                runs.off.push(m + before);
            }
            runs.starts.push(m);
            m += distinct;
        }
        runs.off.push(m);
        sp.rows_out(n);
        runs
    }

    /// These runs once their ids and offsets are merged into the graph's
    /// own: only the total, which sizes the slab, and the shares' starts.
    fn merged(self) -> Self {
        Self {
            ids: Vec::new(),
            off: self.off.last().copied().into_iter().collect(),
            starts: self.starts,
        }
    }

    /// The rank pass: writes the slot of every distinct key's neighbour,
    /// `rank.of(neighbour)`, at its slab position.
    fn rank_slab(&self, sorted: &SortedPairs, rank: &Rank<'_>, threads: usize) -> Arc<[u32]> {
        match sorted {
            SortedPairs::U64(keys, c) => {
                self.rank_keys(keys, |k| c.first(k), |k| c.second(k), rank, threads)
            }
            SortedPairs::U128(keys, c) => {
                self.rank_keys(keys, |k| c.first(k), |k| c.second(k), rank, threads)
            }
        }
    }

    fn rank_keys<K: Copy + PartialEq + Sync>(
        &self,
        keys: &[K],
        node: impl Fn(K) -> NodeId + Sync,
        nbr: impl Fn(K) -> NodeId + Sync,
        rank: &Rank<'_>,
        threads: usize,
    ) -> Arc<[u32]> {
        let m = self.off[self.off.len() - 1];
        let mut sp = ringo_trace::span!("convert.fill.rank");
        sp.rows_in(m);
        sp.rows_out(rank.ids.len());
        let mut slab = new_slab(m);
        let cell = DisjointSlice::new(Arc::get_mut(&mut slab).expect("fresh slab"));
        parallel_for(keys.len(), threads, |w, range| {
            let mut p = self.starts[w];
            let mut scanned = 0u64;
            for_each_distinct(keys, range, &node, |key, _| {
                let (slot, compared) = rank.of(nbr(key));
                scanned += u64::from(compared);
                // SAFETY: the counting pass walked these same keys, so
                // share `w` holds exactly as many distinct keys as
                // separate `starts[w]` from the next share's start (or
                // from `m`): `p` stays inside a window no other share
                // writes.
                unsafe { cell.write(p, slot) };
                p += 1;
            });
            ringo_trace::counter("convert.rank.scanned").add(scanned);
        });
        slab
    }
}

/// Calls `f(key, starts_a_node)` for each key of `range` that differs
/// from its predecessor in `keys` (which may lie before `range`).
#[inline(always)]
fn for_each_distinct<K: Copy + PartialEq>(
    keys: &[K],
    range: Range<usize>,
    node: &impl Fn(K) -> NodeId,
    mut f: impl FnMut(K, bool),
) {
    let mut lo = range.start;
    if lo == 0 && !range.is_empty() {
        f(keys[0], true);
        lo = 1;
    }
    for i in lo..range.end {
        let (prev, key) = (keys[i - 1], keys[i]);
        if key != prev {
            f(key, node(key) != node(prev));
        }
    }
}

/// A node id's slot — its rank among the ascending node ids — found
/// without a hash probe: the id span is cut into about one bucket per
/// node (under two), `bucket = (id − min) >> shift`, a bucket array holds
/// the first rank of every bucket, and a binary search inside the id's
/// bucket finishes. One code path for every id distribution: on an even
/// spread a bucket holds an id or two; a clustered one only lengthens
/// the search, which the `convert.rank.scanned` counter shows.
struct Rank<'a> {
    ids: &'a [NodeId],
    min: NodeId,
    shift: u32,
    /// First rank of each bucket, then `ids.len()`.
    bucket: Vec<u32>,
}

impl<'a> Rank<'a> {
    /// The rank index of `ids` (ascending, distinct).
    ///
    /// # Errors
    /// More than `u32::MAX` ids: ranks are `u32` slots.
    fn new(ids: &'a [NodeId]) -> Result<Self> {
        let n = u32::try_from(ids.len()).map_err(|_| {
            TableError::InvalidArgument(format!(
                "{} distinct node ids; a graph holds at most {} (slots are u32)",
                ids.len(),
                u32::MAX
            ))
        })?;
        let (min, max) = match (ids.first(), ids.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (0, 0),
        };
        let span = max.wrapping_sub(min) as u64;
        // The narrowest shift that leaves no more buckets than the power
        // of two at or above the node count, under two buckets a node:
        // `span >> shift < 2^k` exactly when the span has at most
        // `shift + k` bits. Two or more ids make `k` at least 1, so the
        // shift stays below 64; one id makes the span 0.
        let k = u64::from(n).next_power_of_two().trailing_zeros();
        let shift = (u64::BITS - span.leading_zeros()).saturating_sub(k);
        let buckets = (span >> shift) as usize + 1;
        let mut rank = Self {
            ids,
            min,
            shift,
            bucket: vec![0; buckets + 1],
        };
        for &id in ids {
            let b = rank.bucket_of(id);
            rank.bucket[b + 1] += 1;
        }
        for b in 1..rank.bucket.len() {
            rank.bucket[b] += rank.bucket[b - 1];
        }
        Ok(rank)
    }

    #[inline(always)]
    fn bucket_of(&self, id: NodeId) -> usize {
        (id.wrapping_sub(self.min) as u64 >> self.shift) as usize
    }

    /// The rank of `id`, which must be one of the ids, and how many ids
    /// of its bucket the search examined: a bucket of one id is the
    /// answer without reading it; a few ids are scanned from the start, a
    /// binary search takes more.
    #[inline(always)]
    fn of(&self, id: NodeId) -> (u32, u32) {
        const SCAN: usize = 8;
        let b = self.bucket_of(id);
        let (lo, hi) = (self.bucket[b] as usize, self.bucket[b + 1] as usize);
        let (at, compared) = if hi - lo == 1 {
            (lo, 1)
        } else if hi - lo <= SCAN {
            let within = self.ids[lo..hi].iter().take_while(|&&x| x < id).count();
            (lo + within, within + 1)
        } else {
            let within = self.ids[lo..hi].partition_point(|&x| x < id);
            (
                lo + within,
                (usize::BITS - (hi - lo).leading_zeros()) as usize,
            )
        };
        debug_assert_eq!(self.ids.get(at), Some(&id), "{id} is a node");
        (at as u32, compared as u32)
    }
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
    fn rank_finds_every_id_in_every_spread() {
        let spreads: [Vec<NodeId>; 5] = [
            vec![],
            vec![i64::MIN],
            (0..1000).map(|i| i * 3 - 900).collect(),
            vec![i64::MIN, -1, 0, 1, i64::MAX],
            (0..500).chain((0..500).map(|i| (1 << 50) + i)).collect(),
        ];
        for ids in &spreads {
            let rank = Rank::new(ids).unwrap();
            assert!(
                rank.bucket.len() <= 2 * ids.len() + 2,
                "under two buckets a node"
            );
            for (k, &id) in ids.iter().enumerate() {
                assert_eq!(rank.of(id).0, k as u32, "rank of {id}");
            }
        }
        // The two clusters fall into few buckets, so the search compares more.
        let clustered = &spreads[4];
        let compared = |ids: &[NodeId]| -> u32 {
            let rank = Rank::new(ids).unwrap();
            ids.iter().map(|&id| rank.of(id).1).sum()
        };
        assert!(compared(clustered) > 4 * compared(&spreads[2]));
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
