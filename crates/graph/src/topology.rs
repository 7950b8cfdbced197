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
//! the first reader, shared by clones, cleared by every mutator, and
//! released by the catalog when a newer version displaces the graph.

use crate::traits::{DirectedTopology, Direction};
use crate::NodeId;
use ringo_concurrent::{num_threads, parallel_for_morsels, DisjointSlice};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One orientation: slot `s` owns `adj[offs[s]..offs[s + 1]]`.
#[derive(Debug)]
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
                    for (o, &id) in row.iter_mut().zip(nbrs(s)) {
                        let Some(slot) = g.slot_of(id) else {
                            panic!("adjacency of slot {s} names node {id}, which has no slot");
                        };
                        *o = slot as u32;
                    }
                }
            });
        }
        Self { offs, adj }
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

/// Slot-CSR adjacency of one graph version. Immutable once built; vacant
/// slots have empty rows.
#[derive(Debug)]
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

/// Where a graph value keeps its [`Topology`]. The protocol:
///
/// * **fill** — the first `get_or_build` builds under the lock, so racing
///   readers wait for one build and all receive the same `Arc`;
/// * **share on clone** — a clone starts with the same `Arc` (a clone has
///   the same adjacency until it is mutated);
/// * **clear on mutate** — every `&mut self` mutator of the owning graph
///   calls `clear`, which needs no lock;
/// * **release on displace** — the catalog calls `release` through a
///   shared reference when a newer version replaces the graph, so a
///   reader still pinned to the old version rebuilds on demand.
///
/// The slot is `None` or a finished build at every step, so a poisoned
/// lock (a build that panicked) is recovered, not propagated.
#[derive(Default)]
pub(crate) struct TopologyCell(Mutex<Option<Arc<Topology>>>);

impl TopologyCell {
    fn lock(&self) -> MutexGuard<'_, Option<Arc<Topology>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn get_or_build(&self, build: impl FnOnce() -> Topology) -> Arc<Topology> {
        let mut slot = self.lock();
        if let Some(topo) = &*slot {
            ringo_trace::counter("graph.topology.hit").add(1);
            return Arc::clone(topo);
        }
        let topo = Arc::new(build());
        *slot = Some(Arc::clone(&topo));
        topo
    }

    pub(crate) fn clear(&mut self) {
        *self.0.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
    }

    pub(crate) fn release(&self) {
        if self.lock().take().is_some() {
            ringo_trace::counter("graph.topology.release").add(1);
        }
    }

    /// Bytes held by the cached view (0 when empty).
    pub(crate) fn bytes(&self) -> usize {
        self.lock().as_ref().map_or(0, |t| t.mem_size())
    }
}

impl Clone for TopologyCell {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for TopologyCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TopologyCell")
            .field(&self.lock().is_some())
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
