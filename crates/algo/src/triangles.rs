//! Undirected triangle counting — the paper's second parallel kernel
//! (Table 3), "directly related to relational joins".
//!
//! Counted as a join is run: one side is built into a lookup, the other
//! probes it. For each live slot `c`, the slots of `below(c)` are marked
//! in a bitmap over the slots; each `b` among them then scans `below(b)`
//! and adds up the marked bits, and only the words that were set are
//! cleared. A triangle on slots `a < b < c` is met exactly once, at `c`
//! (DESIGN.md, "Triangles"). The graph's own rows are read in place and
//! nothing is looked up; the one allocation that grows with the graph is
//! the bitmap, `n_slots / 8` bytes, once per executor per call. Every
//! result is a sum of `u64`, identical at any thread count.

use ringo_concurrent::parallel_for_dynamic_with;
use ringo_graph::{DirectedTopology, NodeValues, UndirectedGraph};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the number of distinct triangles. Self-loops never form
/// triangles and are ignored. `threads = 1` gives the sequential variant;
/// any larger value runs on the whole worker pool.
pub fn count_triangles(g: &UndirectedGraph, threads: usize) -> u64 {
    let mut sp = ringo_trace::span!("algo.triangles");
    sp.rows_in(g.edge_count());
    let total = AtomicU64::new(0);
    each_node(g, threads, |bits, c, nbrs| {
        let mine = below(c, nbrs);
        mark(bits, mine);
        let count = mine
            .iter()
            .map(|&b| marked(bits, g.out_row(b as usize), b))
            .sum();
        clear(bits, mine);
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

/// Sets the bits of `slots`.
fn mark(bits: &mut [u64], slots: &[u32]) {
    for &s in slots {
        bits[s as usize / 64] |= 1 << (s % 64);
    }
}

/// How many of the slots below `limit` in `row` are marked. The scan
/// stops at the first slot not below `limit` rather than cutting the row
/// with [`below`] first: a hub's long row is read once per neighbour
/// above it, and the binary search would be paid at every one.
fn marked(bits: &[u64], row: &[u32], limit: u32) -> u64 {
    row.iter()
        .take_while(|&&s| s < limit)
        .map(|&s| bits[s as usize / 64] >> (s % 64) & 1)
        .sum()
}

/// Zeroes the words that [`mark`]ing `slots` set.
fn clear(bits: &mut [u64], slots: &[u32]) {
    for &s in slots {
        bits[s as usize / 64] = 0;
    }
}

/// Slots per dynamically claimed block: one block of hubs is a sliver of
/// the whole (one contiguous range per thread leaves nearly all hub work
/// to one worker), yet claiming a block is noise next to counting it.
const BLOCK: usize = 64;

/// Calls `body(bits, slot, row)` for every live slot, block by block.
/// `bits` is the executor's bitmap over the slots, all zero on entry, and
/// `body` must leave it so.
fn each_node(g: &UndirectedGraph, threads: usize, body: impl Fn(&mut [u64], u32, &[u32]) + Sync) {
    let n_slots = g.n_slots();
    parallel_for_dynamic_with(
        n_slots.div_ceil(BLOCK),
        threads,
        || vec![0u64; n_slots.div_ceil(64)],
        |bits, block| {
            for slot in block * BLOCK..((block + 1) * BLOCK).min(n_slots) {
                if g.slot_id(slot).is_some() {
                    body(bits, slot as u32, g.out_row(slot));
                }
            }
        },
    );
}

/// Triangles incident to each node, a slot-ordered column summing to
/// `3 * count_triangles(g)`.
pub fn node_triangles(g: &UndirectedGraph, threads: usize) -> NodeValues<u64> {
    g.node_values(triangles_per_slot(g, threads), g.node_count(), |_| true)
}

/// [`node_triangles`] as a slot vector (0 in vacant slots).
pub(crate) fn triangles_per_slot(g: &UndirectedGraph, threads: usize) -> Vec<u64> {
    let tri: Vec<AtomicU64> = (0..g.n_slots()).map(|_| AtomicU64::new(0)).collect();
    each_node(g, threads, |bits, u, nbrs| {
        // Each triangle {u, v, w} with w < v is met once, from v, as a
        // marked `w` below `v`. `u` is in every `N(v)`, so a self-loop
        // on `u` marks `u`, which poses as such a `w` whenever `u < v`.
        mark(bits, nbrs);
        let u_loop = nbrs.binary_search(&u).is_ok();
        let mut count = 0;
        for &v in nbrs.iter().filter(|&&v| v != u) {
            let common = marked(bits, g.out_row(v as usize), v);
            count += common - u64::from(u_loop && u < v);
        }
        clear(bits, nbrs);
        // ORDERING: Relaxed — each slot is stored by the one block that
        // owns it and read after the pool's completion mutex.
        tri[u as usize].store(count, Ordering::Relaxed);
    });
    tri.into_iter().map(AtomicU64::into_inner).collect()
}
