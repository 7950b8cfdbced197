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
//!   Here the whole pipeline runs on **packed 8-byte keys**, sorted
//!   **once** a conversion: the radix sorter ([`radix_sort_columns`])
//!   reads the two columns where they lie, packs each pair's varying bits
//!   into one `u64` — `(src, dst)` for a directed graph, `(min, max)` for
//!   an undirected one — and returns the keys sorted, each once. A
//!   counting pass walks them in parallel — the key's high part is the
//!   node — and yields the run heads and each one's slab range; one
//!   lookup of every key's second id among the heads adds the ids that
//!   are never first (a directed graph's sinks, an undirected node whose
//!   neighbours are all smaller). Node `k` of the ascending ids takes
//!   slot `k`, so a neighbour is stored as its *rank* among the node ids:
//!   a rank pass translates every key's second id through a bucket array
//!   over the ids ([`Rank`] — no hash probe) and writes its slot straight
//!   into the first slab at its final position, and the keys are freed.
//!   The other orientation is a **counting transpose** of that slab, not
//!   a second sort: every source slot moves to its targets' rows in two
//!   stable counting passes — into cache-sized blocks of target slots,
//!   then into the rows — so each row comes out ascending, with no sort.
//!   A directed graph's in-rows are that transpose; an undirected node's
//!   row is its transposed entries (its smaller neighbours) followed by
//!   its own forward run, written into one slab. The rank then becomes the
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
    parallel_for, parallel_map, radix_sort_columns, DisjointSlice, IntHashTable, SortedPairs,
};
use ringo_graph::{
    new_slab, DirectedGraph, DirectedTopology, Graph, NodeId, Rank, UndirectedGraph,
    WeightedDigraph,
};
use ringo_table::{ColumnData, ColumnRef, ColumnType, Schema, StringPool, Table, TableError};
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
    let (src, dst) = id_columns(t, src_col, dst_col)?;

    // The `(src, dst)` keys are the out-rows; the in-rows are their
    // transpose, so the keys go as soon as the out-slab is written.
    let keys = sorted_edges(src, dst, false, threads);
    let (rank, out_off) = nodes(&keys, threads)?;
    let out_slab = rank_slab(&keys, &rank, threads);
    drop(keys);
    let inn = transpose(&out_off, &out_slab, false, threads);
    let g = Graph::from_ranked_parts(rank, (out_off, out_slab), Some(inn));
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
    let (src, dst) = id_columns(t, src_col, dst_col)?;

    // One `(min, max)` key an edge: node `k`'s run is its forward
    // neighbours (itself too, for a loop), and the transpose adds the
    // smaller ones in front of it.
    let keys = sorted_edges(src, dst, true, threads);
    let (rank, fwd_off) = nodes(&keys, threads)?;
    let fwd = rank_slab(&keys, &rank, threads);
    drop(keys);
    let out = transpose(&fwd_off, &fwd, true, threads);
    drop((fwd_off, fwd));
    let g = Graph::from_ranked_parts(rank, out, None);
    sp.rows_out(g.edge_count());
    Ok(g)
}

/// The two `Int` id columns of `t`, each as the table's rows read it: a
/// view's columns are read through their selections, not gathered.
fn id_columns<'a>(
    t: &'a Table,
    src_col: &str,
    dst_col: &str,
) -> Result<(ColumnRef<'a>, ColumnRef<'a>)> {
    let id_col = |name| t.column_ref(name, ColumnType::Int);
    Ok((id_col(src_col)?, id_col(dst_col)?))
}

/// The pairs `(a[i], b[i])` sorted ([`radix_sort_columns`]; `(min, max)`
/// when `canonical`), each once: a repeated row is one edge, so the
/// passes after hold no repeats.
fn sorted_edges(
    a: ColumnRef<'_>,
    b: ColumnRef<'_>,
    canonical: bool,
    threads: usize,
) -> SortedPairs {
    let (ids_a, ids_b) = (a.data.as_int(), b.data.as_int());
    let mut sorted = radix_sort_columns(ids_a, ids_b, [a.sel, b.sel], canonical, threads);
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

/// The graph's nodes, ranked, and each one's run of the sorted `keys`:
/// node `k` owns `keys[off[k]..off[k + 1]]`, which is also its range of
/// the first slab — empty for an id that is only ever a key's second.
/// More than `u32::MAX` ids is an error, since ranks are `u32` slots.
fn nodes(keys: &SortedPairs, threads: usize) -> Result<(Rank, Vec<usize>)> {
    let mut sp = ringo_trace::span!("convert.fill.count");
    let runs = match keys {
        SortedPairs::U64(keys, codec) => Runs::of(keys, |k| codec.first(k), threads),
        SortedPairs::U128(keys, codec) => Runs::of(keys, |k| codec.first(k), threads),
    };
    sp.rows_in(runs.off.last().copied().unwrap_or_default());
    let heads = rank(runs.ids)?;
    let seconds = match keys {
        SortedPairs::U64(keys, codec) => seconds_only(keys, |k| codec.second(k), &heads, threads),
        SortedPairs::U128(keys, codec) => seconds_only(keys, |k| codec.second(k), &heads, threads),
    };
    if seconds.is_empty() {
        sp.rows_out(heads.ids().len());
        return Ok((heads, runs.off));
    }
    // Merge the second-only ids in; each takes an empty run, at the
    // offset of the next head's.
    let n = heads.ids().len() + seconds.len();
    let (mut ids, mut off) = (Vec::with_capacity(n), Vec::with_capacity(n + 1));
    let mut seconds = seconds.into_iter().peekable();
    for (&id, &at) in heads.ids().iter().zip(&runs.off) {
        while let Some(second) = seconds.next_if(|&s| s < id) {
            ids.push(second);
            off.push(at);
        }
        ids.push(id);
        off.push(at);
    }
    let end = runs.off.last().copied().unwrap_or_default();
    for second in seconds {
        ids.push(second);
        off.push(end);
    }
    off.push(end);
    drop((heads, runs.off));
    sp.rows_out(ids.len());
    Ok((rank(ids)?, off))
}

/// The rank index of the ascending, distinct `ids`.
fn rank(ids: Vec<NodeId>) -> Result<Rank> {
    if u32::try_from(ids.len()).is_err() {
        return Err(TableError::InvalidArgument(format!(
            "{} distinct node ids; a graph holds at most {} (slots are u32)",
            ids.len(),
            u32::MAX
        )));
    }
    Ok(Rank::new(ids))
}

/// The sorted keys in runs of their first id: run `k` of head `ids[k]`
/// is `keys[off[k]..off[k + 1]]`.
struct Runs {
    ids: Vec<NodeId>,
    off: Vec<usize>,
}

impl Runs {
    /// The counting pass of the sort-first fill, over whichever word (`u64`
    /// or `u128`) the pairs were sorted in. Workers take equal shares of
    /// the keys, wherever runs begin and end (a hub's run is split like
    /// any other stretch), and each notes the heads it begins.
    fn of<K: Copy + Sync>(keys: &[K], node: impl Fn(K) -> NodeId + Sync, threads: usize) -> Self {
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
        Self { ids, off }
    }
}

/// The ids that are some key's second and no run's head, ascending: one
/// lookup of every key's second among the `heads`. Each worker notes the
/// ids it misses in a set of its own, so a sink's thousands of in-edges
/// cost it one entry.
fn seconds_only<K: Copy + Sync>(
    keys: &[K],
    second: impl Fn(K) -> NodeId + Sync,
    heads: &Rank,
    threads: usize,
) -> Vec<NodeId> {
    let missed = parallel_map(keys.len(), threads, |range| {
        let mut missed = IntHashTable::new();
        for &key in &keys[range] {
            let id = second(key);
            let at = heads.find(id).0;
            if at.is_none_or(|at| heads.ids()[at as usize] != id) {
                missed.insert(id, ());
            }
        }
        missed
    });
    let mut ids: Vec<NodeId> = missed.iter().flat_map(IntHashTable::keys).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The rank pass: the slab of every key's second id's slot,
/// `rank.of(second)`, at the key's own position.
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

/// Target slots of the transpose go in at most this many blocks: few
/// enough that the first pass's write streams (one a block) stay cached,
/// as the radix sorter's buckets do. A block is at most `u16::MAX + 1`
/// slots, so a graph of more than 2^27 nodes takes more blocks.
const BLOCKS: usize = 2048;

/// The counting transpose of the rows `(off, slab)`: row `t` of the
/// result lists, ascending, every `s` whose row holds `t`. A `symmetric`
/// result is an undirected graph's rows built from its forward runs (each
/// run holds the node's neighbours at or above it): row `t` lists the
/// `s < t` whose run holds `t`, then `t`'s own run, so a loop is stored
/// once and every row stays ascending. Returns the result's offsets and
/// slab.
///
/// A scatter straight into the rows would write to as many places at
/// once as there are nodes. Instead, two stable counting passes: the
/// first moves every entry's source, in source order, to its target's
/// block of `n / BLOCKS` slots (rounded up to a power of two) — the
/// block's range of the result — noting beside it, in a `u16`, which of
/// the block's slots is its target; the
/// second, block by block, counts the block's rows and moves each source
/// to its row. Both keep source order, so every row comes out ascending,
/// the same at any thread count, with no atomics and no sort.
fn transpose(
    off: &[usize],
    slab: &[u32],
    symmetric: bool,
    threads: usize,
) -> (Vec<usize>, Arc<[u32]>) {
    let mut sp = ringo_trace::span!("convert.fill.transpose");
    sp.rows_in(slab.len());
    let n = off.len() - 1;
    // Row `t`'s own entries, kept after the moved ones.
    let own = |t: usize| match symmetric {
        true => &slab[off[t]..off[t + 1]],
        false => &[],
    };
    let moves = |s: usize, t: u32| !symmetric || s != t as usize;
    let shift = (n.div_ceil(BLOCKS).next_power_of_two().trailing_zeros()).min(u16::BITS);
    let (blocks, within) = (n.div_ceil(1 << shift), (1u32 << shift) - 1);
    // Block `b`'s target slots.
    let targets = |b: usize| b << shift..((b + 1) << shift).min(n);

    // Moved entries a block, per worker share of the entries.
    let counts = parallel_map(slab.len(), threads, |range| {
        let mut h = vec![0usize; blocks];
        for (s, t) in entries(off, slab, range) {
            if moves(s, t) {
                h[t as usize >> shift] += 1;
            }
        }
        h
    });
    // Where each block's moved entries begin among all moved entries
    // (`moved`), and its range of the result (`start`), own runs
    // included; each share's cursors into `moved`.
    let (mut moved, mut start) = (
        Vec::with_capacity(blocks + 1),
        Vec::with_capacity(blocks + 1),
    );
    let mut cursors = vec![0usize; counts.len() * blocks];
    let (mut m, mut at) = (0, 0);
    for b in 0..blocks {
        moved.push(m);
        start.push(at);
        for (w, h) in counts.iter().enumerate() {
            cursors[w * blocks + b] = m;
            m += h[b];
        }
        let r = targets(b);
        at += m - moved[b] + (off[r.end] - off[r.start]) * usize::from(symmetric);
    }
    moved.push(m);
    start.push(at);
    drop(counts);

    let mut out = new_slab(at);
    let out_cell = DisjointSlice::new(Arc::get_mut(&mut out).expect("fresh slab"));
    // The first pass: each moved entry's source to its block's range of
    // the result, its target's place in the block to the same place among
    // `target`.
    let mut target = vec![0u16; m];
    {
        let target_cell = DisjointSlice::new(&mut target);
        let cursor_cell = DisjointSlice::new(&mut cursors);
        parallel_for(slab.len(), threads, |w, range| {
            // SAFETY: each share touches only its own cursor row.
            let cur = unsafe { cursor_cell.slice_mut(w * blocks, (w + 1) * blocks) };
            for (s, t) in entries(off, slab, range) {
                if moves(s, t) {
                    let b = t as usize >> shift;
                    let k = cur[b];
                    cur[b] += 1;
                    // SAFETY: the cursors partition `0..m`, and block
                    // `b`'s `moved[b]..moved[b + 1]` maps one to one onto
                    // the front of its range of the result.
                    unsafe {
                        target_cell.write(k, (t & within) as u16);
                        out_cell.write(start[b] + k - moved[b], s as u32);
                    }
                }
            }
        });
    }
    drop(cursors);

    // The second pass, a share of the blocks a worker: the blocks whose
    // range of the result begins in its share of the entries (the last
    // share also takes the empty blocks at the end).
    let mut t_off = vec![0usize; n + 1];
    t_off[n] = at;
    let off_cell = DisjointSlice::new(&mut t_off);
    parallel_for(at, threads, |_, range| {
        let first = start[..blocks].partition_point(|&o| o < range.start);
        let last = match range.end == at {
            true => blocks,
            false => start[..blocks].partition_point(|&o| o < range.end),
        };
        let (mut sources, mut row_at) = (Vec::new(), Vec::new());
        for b in first..last {
            let (r, targets_of) = (targets(b), &target[moved[b]..moved[b + 1]]);
            // SAFETY: block ranges of the result are disjoint, and each
            // block is one share's.
            let rows = unsafe { out_cell.slice_mut(start[b], start[b + 1]) };
            sources.clear();
            sources.extend_from_slice(&rows[..targets_of.len()]);
            // Each row's bounds within the block: its moved entries, then
            // its own; `row_at` becomes the cursor of its moved ones.
            row_at.clear();
            row_at.resize(r.len(), 0);
            for &t in targets_of {
                row_at[usize::from(t)] += 1;
            }
            let mut k = 0;
            for (t, cursor) in r.clone().zip(&mut row_at) {
                // SAFETY: block `b` writes only its own targets' offsets.
                unsafe { off_cell.write(t, start[b] + k) };
                let got = std::mem::replace(cursor, k);
                k += got + own(t).len();
            }
            for (&t, &s) in targets_of.iter().zip(&sources) {
                let cursor = &mut row_at[usize::from(t)];
                rows[*cursor] = s;
                *cursor += 1;
            }
            for (t, &cursor) in r.zip(&row_at) {
                let own = own(t);
                rows[cursor..cursor + own.len()].copy_from_slice(own);
            }
        }
    });
    sp.rows_out(at);
    (t_off, out)
}

/// The entries of `range` of `(off, slab)`, each with its row: `(s, t)`
/// for every entry `t` of row `s`.
fn entries<'a>(
    off: &'a [usize],
    slab: &'a [u32],
    range: std::ops::Range<usize>,
) -> impl Iterator<Item = (usize, u32)> + 'a {
    let mut s = off.partition_point(|&o| o <= range.start).saturating_sub(1);
    range.map(move |i| {
        while off[s + 1] <= i {
            s += 1;
        }
        (s, slab[i])
    })
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
    let (src, dst) = id_columns(t, src_col, dst_col)?;
    let (ids_s, ids_d) = (src.data.as_int(), dst.data.as_int());
    let edge = |row| (ids_s[src.at(row)], ids_d[dst.at(row)], weight(row));
    let g = WeightedDigraph::from_out_weights(g, (0..t.n_rows()).map(edge));
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
