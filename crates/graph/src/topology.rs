//! One dense, slot-indexed view of a graph's adjacency: [`Topology`].
//!
//! The dynamic graphs store neighbor *ids*, so a kernel that keeps its
//! state in flat slot-indexed arrays pays an id→slot hash probe per edge
//! per pass. A `Topology` pays that translation once: out-rows and
//! in-rows of packed `u32` neighbor *slots* behind prefix offsets
//! (degrees are offset differences), each row in the graph's adjacency
//! order, so a kernel that walks rows instead of id lists visits the
//! same neighbors in the same order — float sums and tie-breaks stay
//! bit-identical.
//!
//! [`crate::DirectedGraph`] and [`crate::UndirectedGraph`] cache theirs
//! in a `TopologyCell` (see [`DirectedTopology::topology`]): filled by
//! the first reader, shared by clones, and released by the catalog when a
//! newer version displaces the graph. A mutator does not drop the view:
//! it marks the slots whose lists it changed, and the next reader
//! re-translates only those rows, shifting the clean ones into place —
//! in the same buffers when no one else holds the view, which is the case
//! for a version published over its parent. An edit therefore costs the
//! view `O(dirty degree)` probes plus a `memmove`, not one probe per
//! stored neighbor.

use crate::traits::{DirectedTopology, Direction};
use crate::{slot_u32, NodeId};
use ringo_concurrent::{num_threads, parallel_for_dynamic, parallel_for_morsels, DisjointSlice};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Dirty rows one [`parallel_for_dynamic`] item re-translates: rows are a
/// few elements to a hub's hundred thousand, so items are claimed, not
/// pre-assigned.
const PATCH_BLOCK: usize = 64;

/// Writes the slot of every id in `ids` (the list of `slot`) to `row`.
#[inline]
fn translate<G: DirectedTopology>(g: &G, slot: usize, ids: &[NodeId], row: &mut [u32]) {
    for (o, &id) in row.iter_mut().zip(ids) {
        let Some(nbr) = g.slot_of(id) else {
            panic!("adjacency of slot {slot} names node {id}, which has no slot");
        };
        *o = slot_u32(nbr);
    }
}

/// A row [`Rows::patch`] rewrites: where it sat, and where it goes.
struct DirtyRow {
    slot: usize,
    old: Range<usize>,
    new: Range<usize>,
}

/// One orientation: slot `s` owns `adj[offs[s]..offs[s + 1]]`.
#[derive(Clone, Debug)]
struct Rows {
    offs: Vec<usize>,
    adj: Vec<u32>,
}

impl Rows {
    /// Translates every `nbrs(slot)` id list to slots, morsel-parallel
    /// over disjoint rows.
    fn build<'g, G, F>(g: &'g G, nbrs: F) -> Self
    where
        G: DirectedTopology,
        F: Fn(usize) -> &'g [NodeId] + Sync,
    {
        let n = g.n_slots();
        let mut offs = Vec::with_capacity(n + 1);
        let mut sum = 0usize;
        offs.push(0);
        for s in 0..n {
            sum += nbrs(s).len();
            offs.push(sum);
        }
        let mut adj = vec![0u32; sum];
        {
            let cell = DisjointSlice::new(&mut adj);
            let offs = &offs;
            parallel_for_morsels(n, num_threads(), |_, range| {
                for s in range {
                    // SAFETY: rows `[offs[s], offs[s + 1])` are pairwise
                    // disjoint per slot, and morsels partition the slot
                    // range, so each row is written by exactly one worker.
                    let row = unsafe { cell.slice_mut(offs[s], offs[s + 1]) };
                    translate(g, s, nbrs(s), row);
                }
            });
        }
        Self { offs, adj }
    }

    /// Brings the rows up to date with `g`, in place: the rows of `dirty`
    /// slots are re-translated from `nbrs`, every other row keeps its
    /// contents and moves to its new offset, and slots `g` gained since
    /// the rows were made get (empty unless dirty) rows. Returns
    /// `(dirty rows, neighbor slots moved + re-translated)`.
    ///
    /// Clean rows between two consecutive dirty slots form one block that
    /// shifts by the net growth of the dirty rows before it. Blocks keep
    /// their order and never overlap, before or after, so a block that
    /// moves right ends at or before the new start — hence the old start —
    /// of any later block that moves left, and starts after every earlier
    /// block's old end. Moving the right-shifting blocks last to first,
    /// then the left-shifting ones first to last, therefore never writes
    /// over a block that has yet to move.
    fn patch<'g, G, F>(&mut self, g: &'g G, dirty: &DirtySlots, nbrs: F) -> (usize, usize)
    where
        G: DirectedTopology,
        F: Fn(usize) -> &'g [NodeId] + Sync,
    {
        let n_old = self.offs.len() - 1;
        let n_new = g.n_slots();
        assert!(n_old <= n_new, "a graph never gives slots back");
        let len_old = self.adj.len();

        let (mut old_sum, mut new_sum) = (0usize, 0usize);
        let rows: Vec<DirtyRow> = dirty
            .iter()
            .map(|slot| {
                let old = if slot < n_old {
                    self.offs[slot]..self.offs[slot + 1]
                } else {
                    len_old..len_old
                };
                // `old_sum` counts only rows that lie before `old.start`.
                let start = old.start - old_sum + new_sum;
                let new = start..start + nbrs(slot).len();
                old_sum += old.len();
                new_sum += new.len();
                DirtyRow { slot, old, new }
            })
            .collect();
        let len_new = len_old - old_sum + new_sum;
        if len_new > len_old {
            self.adj.reserve_exact(len_new - len_old);
            self.adj.resize(len_new, 0);
        }

        // The clean block after dirty row `i`: old position, new start.
        let block = |i: usize| {
            let end = rows.get(i + 1).map_or(len_old, |next| next.old.start);
            (rows[i].old.end..end, rows[i].new.end)
        };
        let mut moved = 0usize;
        for i in (0..rows.len()).rev() {
            let (src, dest) = block(i);
            if dest > src.start {
                moved += src.len();
                self.adj.copy_within(src, dest);
            }
        }
        for i in 0..rows.len() {
            let (src, dest) = block(i);
            if dest < src.start {
                moved += src.len();
                self.adj.copy_within(src, dest);
            }
        }
        self.adj.truncate(len_new);

        {
            let cell = DisjointSlice::new(&mut self.adj);
            let rows = &rows;
            parallel_for_dynamic(rows.len().div_ceil(PATCH_BLOCK), num_threads(), |b| {
                let end = rows.len().min((b + 1) * PATCH_BLOCK);
                for row in &rows[b * PATCH_BLOCK..end] {
                    // SAFETY: the `new` ranges of distinct dirty rows are
                    // pairwise disjoint and within `len_new`, and blocks
                    // partition the dirty rows, so each range is written
                    // by exactly one worker.
                    let out = unsafe { cell.slice_mut(row.new.start, row.new.end) };
                    translate(g, row.slot, nbrs(row.slot), out);
                }
            });
        }

        // One pass over the offsets: a slot past dirty row `i` moves by the
        // net growth of rows `0..=i`.
        self.offs.reserve_exact(n_new - n_old);
        self.offs.resize(n_new + 1, len_old);
        for (i, row) in rows.iter().enumerate() {
            let end = rows.get(i + 1).map_or(n_new, |next| next.slot);
            for off in &mut self.offs[row.slot + 1..=end] {
                *off = *off - row.old.end + row.new.end;
            }
        }
        (rows.len(), moved + new_sum)
    }

    #[inline]
    fn row(&self, slot: usize) -> &[u32] {
        &self.adj[self.offs[slot]..self.offs[slot + 1]]
    }

    #[inline]
    fn degree(&self, slot: usize) -> u32 {
        (self.offs[slot + 1] - self.offs[slot]) as u32
    }

    fn mem_size(&self) -> usize {
        self.offs.capacity() * std::mem::size_of::<usize>()
            + self.adj.capacity() * std::mem::size_of::<u32>()
    }
}

/// Slot-CSR adjacency of one graph version. Immutable once handed out;
/// vacant slots have empty rows.
#[derive(Clone, Debug)]
pub struct Topology {
    out: Rows,
    /// `None` for a symmetric graph, whose in-rows are its out-rows.
    inn: Option<Rows>,
}

impl Topology {
    /// Builds the view of `g` (one `slot_of` probe per stored neighbor —
    /// the last ones a kernel running over the result needs). With
    /// `symmetric` the rows are stored once and serve both orientations;
    /// the caller vouches that `g`'s in- and out-lists coincide.
    pub fn build<G: DirectedTopology>(g: &G, symmetric: bool) -> Self {
        let mut sp = ringo_trace::span!("graph.topology.build");
        let out = Rows::build(g, |s| g.out_nbrs_of_slot(s));
        let inn = (!symmetric).then(|| Rows::build(g, |s| g.in_nbrs_of_slot(s)));
        let topo = Self { out, inn };
        sp.rows_in(topo.out.adj.len());
        sp.rows_out(topo.mem_size());
        topo
    }

    /// Re-translates the rows of `dirty` slots from `g` and shifts the rest
    /// into place (see [`Rows::patch`]); afterwards `self` equals
    /// `Topology::build(g, self.is_symmetric())`.
    fn patch<G: DirectedTopology>(&mut self, g: &G, dirty: &Dirty) {
        let mut sp = ringo_trace::span!("graph.topology.patch");
        let (mut rows, mut slots) = self.out.patch(g, &dirty.out, |s| g.out_nbrs_of_slot(s));
        if let Some(inn) = &mut self.inn {
            let (r, s) = inn.patch(g, &dirty.inn, |s| g.in_nbrs_of_slot(s));
            rows += r;
            slots += s;
        }
        sp.rows_in(rows);
        sp.rows_out(slots);
    }

    /// Upper bound (exclusive) on slots, as in the graph it was built from.
    pub fn n_slots(&self) -> usize {
        self.out.offs.len() - 1
    }

    /// Whether one row set serves both orientations.
    pub fn is_symmetric(&self) -> bool {
        self.inn.is_none()
    }

    /// The row sets a traversal along `dir` expands, in order: the second
    /// exists only for [`Direction::Both`] on an asymmetric graph.
    #[inline]
    fn senses(&self, dir: Direction) -> (&Rows, Option<&Rows>) {
        match (dir, &self.inn) {
            (Direction::In, Some(inn)) => (inn, None),
            (Direction::Both, Some(inn)) => (&self.out, Some(inn)),
            _ => (&self.out, None),
        }
    }

    /// Out-neighbor slots of `slot`, in adjacency order.
    #[inline]
    pub fn out_row(&self, slot: usize) -> &[u32] {
        self.out.row(slot)
    }

    /// In-neighbor slots of `slot`, in adjacency order.
    #[inline]
    pub fn in_row(&self, slot: usize) -> &[u32] {
        self.senses(Direction::In).0.row(slot)
    }

    /// Out-degree of `slot`.
    #[inline]
    pub fn out_degree(&self, slot: usize) -> u32 {
        self.out.degree(slot)
    }

    /// In-degree of `slot`.
    #[inline]
    pub fn in_degree(&self, slot: usize) -> u32 {
        self.senses(Direction::In).0.degree(slot)
    }

    /// The rows a traversal along `dir` expands from `slot`, in order.
    /// The second is empty except for [`Direction::Both`] on an
    /// asymmetric graph, which walks the out-row then the in-row.
    #[inline]
    pub fn rows(&self, slot: usize, dir: Direction) -> [&[u32]; 2] {
        let (first, second) = self.senses(dir);
        [first.row(slot), second.map_or(&[], |r| r.row(slot))]
    }

    /// Total length of [`Topology::rows`] at `slot`.
    #[inline]
    pub fn degree(&self, slot: usize, dir: Direction) -> u32 {
        let (first, second) = self.senses(dir);
        first.degree(slot) + second.map_or(0, |r| r.degree(slot))
    }

    /// Sum of [`Topology::degree`] over all slots.
    pub fn total_degree(&self, dir: Direction) -> u64 {
        let (first, second) = self.senses(dir);
        (first.adj.len() + second.map_or(0, |r| r.adj.len())) as u64
    }

    /// Heap footprint in bytes.
    pub fn mem_size(&self) -> usize {
        self.out.mem_size() + self.inn.as_ref().map_or(0, Rows::mem_size)
    }
}

/// A set of slots, one bit each. No words means no slot.
#[derive(Clone, Default)]
struct DirtySlots {
    words: Vec<u64>,
}

impl DirtySlots {
    fn mark(&mut self, slot: usize) {
        let word = slot / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (slot % 64);
    }

    fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The marked slots, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// The rows of a cached view that no longer match the owning graph, per
/// orientation: an edge edit changes its source's out-list and its
/// target's in-list only. One bit per slot and orientation, so however
/// many edits arrive the state stays bounded by the graph's slot count.
#[derive(Clone, Default)]
struct Dirty {
    out: DirtySlots,
    /// Stays empty for a symmetric view, which has no in-rows.
    inn: DirtySlots,
}

impl Dirty {
    fn is_empty(&self) -> bool {
        self.out.is_empty() && self.inn.is_empty()
    }
}

#[derive(Clone, Default)]
struct CellState {
    topo: Option<Arc<Topology>>,
    /// Always empty while `topo` is `None`.
    dirty: Dirty,
}

/// Where a graph value keeps its [`Topology`]. The protocol:
///
/// * **fill** — the first `get` builds under the lock, so racing readers
///   wait for one build and all receive the same `Arc`;
/// * **share on clone** — a clone starts with the same `Arc` and the same
///   dirty slots (a clone has the same adjacency until it is mutated);
/// * **stale on mutate** — a `&mut self` mutator of the owning graph calls
///   `mark` for each list it changed, which needs no lock and does
///   nothing while no view is cached; the view stays, out of date in
///   exactly those rows;
/// * **patch on first read** — `get` on a stale cell patches the view
///   under `Arc::make_mut`: in place when this cell holds the only
///   reference, on a copy when a clone's cell or a reader still holds the
///   parent's view, which is never written;
/// * **release on displace** — the catalog calls `release` through a
///   shared reference when a newer version replaces the graph, so a
///   reader still pinned to the old version rebuilds on demand — and the
///   successor, cloned from it, is left holding the only reference.
///
/// The state is taken out of the cell while a build or patch runs, so one
/// that panics leaves the cell empty, and the poisoned lock is recovered,
/// not propagated.
#[derive(Default)]
pub(crate) struct TopologyCell(Mutex<CellState>);

impl TopologyCell {
    fn lock(&self) -> MutexGuard<'_, CellState> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current view of `g`, the graph that owns this cell: the cached
    /// one, patched first if stale, or a fresh build (`symmetric` as in
    /// [`Topology::build`]).
    pub(crate) fn get<G: DirectedTopology>(&self, g: &G, symmetric: bool) -> Arc<Topology> {
        let mut state = self.lock();
        let CellState { topo, dirty } = std::mem::take(&mut *state);
        let topo = match topo {
            Some(topo) if dirty.is_empty() => {
                ringo_trace::counter("graph.topology.hit").add(1);
                topo
            }
            Some(mut topo) => {
                ringo_trace::counter("graph.topology.patches").add(1);
                Arc::make_mut(&mut topo).patch(g, &dirty);
                topo
            }
            None => {
                ringo_trace::counter("graph.topology.builds").add(1);
                Arc::new(Topology::build(g, symmetric))
            }
        };
        state.topo = Some(Arc::clone(&topo));
        topo
    }

    /// Records that the list of `slot` read along `dir` changed
    /// ([`Direction::Both`]: its out- and its in-list).
    #[inline]
    pub(crate) fn mark(&mut self, slot: u32, dir: Direction) {
        let state = self.0.get_mut().unwrap_or_else(PoisonError::into_inner);
        let Some(topo) = &state.topo else {
            return;
        };
        if dir != Direction::In {
            state.dirty.out.mark(slot as usize);
        }
        if dir != Direction::Out && !topo.is_symmetric() {
            state.dirty.inn.mark(slot as usize);
        }
    }

    pub(crate) fn release(&self) {
        if std::mem::take(&mut *self.lock()).topo.is_some() {
            ringo_trace::counter("graph.topology.release").add(1);
        }
    }

    /// Bytes held by the cached view, stale or not (0 when empty).
    pub(crate) fn bytes(&self) -> usize {
        self.lock().topo.as_ref().map_or(0, |t| t.mem_size())
    }
}

impl Clone for TopologyCell {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for TopologyCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("TopologyCell")
            .field("cached", &state.topo.is_some())
            .field("stale", &!state.dirty.is_empty())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectedGraph, UndirectedGraph};

    #[test]
    fn rows_follow_adjacency_order_and_skip_vacant_slots() {
        let mut g = DirectedGraph::new();
        for (s, d) in [(5, 1), (5, 9), (1, 9), (9, 5), (7, 7)] {
            g.add_edge(s, d);
        }
        g.del_node(1);
        let t = g.topology();
        assert!(!t.is_symmetric());
        assert_eq!(t.n_slots(), g.n_slots());
        for s in 0..g.n_slots() {
            let ids = |row: &[u32]| -> Vec<NodeId> {
                row.iter()
                    .map(|&v| g.slot_id(v as usize).expect("row names live slots"))
                    .collect()
            };
            assert_eq!(ids(t.out_row(s)), g.out_nbrs_of_slot(s));
            assert_eq!(ids(t.in_row(s)), g.in_nbrs_of_slot(s));
            assert_eq!(
                t.degree(s, Direction::Both),
                t.out_degree(s) + t.in_degree(s)
            );
        }
        assert_eq!(t.total_degree(Direction::Out), g.edge_count() as u64);
        assert_eq!(t.total_degree(Direction::Both), 2 * g.edge_count() as u64);
    }

    #[test]
    fn symmetric_rows_are_stored_once() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let t = g.topology();
        assert!(t.is_symmetric());
        let s2 = UndirectedGraph::slot_of(&g, 2).expect("node 2");
        assert_eq!(t.out_row(s2), t.in_row(s2));
        assert_eq!(t.rows(s2, Direction::Both)[1], &[] as &[u32]);
        assert_eq!(t.degree(s2, Direction::Both), 2);
        assert_eq!(t.mem_size(), t.out.mem_size());
    }
}
