//! Undirected triangle counting — the paper's second parallel kernel
//! (Table 3), "directly related to relational joins".
//!
//! The forward algorithm ("a straightforward approach, similar to
//! \[PATRIC\]") on the graph's own rows of neighbour slots, read in place
//! and sorted by slot. A triangle on slots `a < b < c` is met exactly
//! once, at `c`: `b` is a neighbour below `c`, and `a` is below `b` in
//! both their rows (DESIGN.md, "Triangles"). Nothing is allocated per
//! node or per edge, nothing is looked up, and every result is a sum of
//! `u64`, identical at any thread count.

use crate::intersect::count_common;
use ringo_concurrent::parallel_for_dynamic;
use ringo_graph::{DirectedTopology, NodeValues, UndirectedGraph};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the number of distinct triangles. Self-loops never form
/// triangles and are ignored. `threads = 1` gives the sequential variant;
/// any larger value runs on the whole worker pool.
pub fn count_triangles(g: &UndirectedGraph, threads: usize) -> u64 {
    let mut sp = ringo_trace::span!("algo.triangles");
    sp.rows_in(g.edge_count());
    let total = AtomicU64::new(0);
    each_node(g, threads, |u, nbrs| {
        let mine = below(u, nbrs);
        let mut count = 0;
        for (i, &v) in mine.iter().enumerate() {
            count += count_common(&mine[..i], below(v, g.out_row(v as usize)));
        }
        // ORDERING: Relaxed — a commutative sum that publishes nothing;
        // the pool's completion mutex orders it before the final read.
        total.fetch_add(count, Ordering::Relaxed);
    });
    let total = total.into_inner();
    sp.rows_out(usize::try_from(total).unwrap_or(usize::MAX));
    total
}

/// The part of slot `u`'s row below `u`; a self-loop is not in it.
fn below(u: u32, nbrs: &[u32]) -> &[u32] {
    &nbrs[..nbrs.partition_point(|&w| w < u)]
}

/// Slots per dynamically claimed block: one block of hubs is a sliver of
/// the whole (one contiguous range per thread leaves nearly all hub work
/// to one worker), yet claiming a block is noise next to counting it.
const BLOCK: usize = 64;

/// Calls `body(slot, row)` for every live slot, block by block.
fn each_node(g: &UndirectedGraph, threads: usize, body: impl Fn(u32, &[u32]) + Sync) {
    let n_slots = g.n_slots();
    parallel_for_dynamic(n_slots.div_ceil(BLOCK), threads, |block| {
        for slot in block * BLOCK..((block + 1) * BLOCK).min(n_slots) {
            if g.slot_id(slot).is_some() {
                body(slot as u32, g.out_row(slot));
            }
        }
    });
}

/// Triangles incident to each node, a slot-ordered column summing to
/// `3 * count_triangles(g)`.
pub fn node_triangles(g: &UndirectedGraph, threads: usize) -> NodeValues<u64> {
    g.node_values(triangles_per_slot(g, threads), g.node_count(), |_| true)
}

/// [`node_triangles`] as a slot vector (0 in vacant slots).
pub(crate) fn triangles_per_slot(g: &UndirectedGraph, threads: usize) -> Vec<u64> {
    let tri: Vec<AtomicU64> = (0..g.n_slots()).map(|_| AtomicU64::new(0)).collect();
    each_node(g, threads, |u, nbrs| {
        // Each triangle {u, v, w} with w < v is met once, from v, as a
        // `w` below `v` in both rows. `u` is in every `N(v)`, so a
        // self-loop on `u` would pose as such a `w` whenever `u < v`.
        let u_loop = nbrs.binary_search(&u).is_ok();
        let mut count = 0;
        for (i, &v) in nbrs.iter().enumerate().filter(|&(_, &v)| v != u) {
            let common = count_common(&nbrs[..i], below(v, g.out_row(v as usize)));
            count += common - u64::from(u_loop && u < v);
        }
        // ORDERING: Relaxed — each slot is stored by the one block that
        // owns it and read after the pool's completion mutex.
        tri[u as usize].store(count, Ordering::Relaxed);
    });
    tri.into_iter().map(AtomicU64::into_inner).collect()
}
