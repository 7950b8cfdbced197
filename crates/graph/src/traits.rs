//! Slot-addressed read access shared by the graph types.

use crate::topology::Topology;
use crate::{NodeId, NodeValues};
use std::sync::Arc;

/// Which edges a directed traversal follows.
///
/// Lives in the graph layer (rather than with any one algorithm) because
/// both the traversal kernels in `ringo-algo` and the row accessors of
/// [`Topology`] are parameterized by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges (successors).
    Out,
    /// Follow in-edges (predecessors).
    In,
    /// Treat edges as undirected.
    Both,
}

impl Direction {
    /// The direction that walks every edge the other way.
    pub fn reversed(self) -> Self {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
            Direction::Both => Direction::Both,
        }
    }
}

/// Read-only, slot-addressed view of a directed graph.
///
/// Slots are dense handles in `0..n_slots()`; a slot may be vacant (after a
/// node deletion in [`crate::DirectedGraph`]) in which case
/// [`DirectedTopology::slot_id`] returns `None`. Algorithms allocate their
/// per-node state as flat arrays indexed by slot and translate neighbor
/// *ids* back to slots with [`DirectedTopology::slot_of`] — the same
/// id-to-position hash lookup SNAP performs per edge traversal.
pub trait DirectedTopology: Sync {
    /// Upper bound (exclusive) on slot handles.
    fn n_slots(&self) -> usize;
    /// External id stored in `slot`, or `None` for vacant slots.
    fn slot_id(&self, slot: usize) -> Option<NodeId>;
    /// Slot holding node `id`.
    fn slot_of(&self, id: NodeId) -> Option<usize>;
    /// Sorted out-neighbor ids of the node in `slot` (empty when vacant).
    fn out_nbrs_of_slot(&self, slot: usize) -> &[NodeId];
    /// Sorted in-neighbor ids of the node in `slot` (empty when vacant).
    fn in_nbrs_of_slot(&self, slot: usize) -> &[NodeId];
    /// Number of (live) nodes.
    fn node_count(&self) -> usize;
    /// Number of directed edges.
    fn edge_count(&self) -> usize;

    /// A kernel's per-slot output as a [`NodeValues`] on this graph's id
    /// index: slot `s` of `per_slot` is kept when `keep` accepts it and
    /// the slot is live; slots past the end of `per_slot` have no value.
    /// `count` reserves the id column (the number kept, when known).
    fn node_values<T>(
        &self,
        per_slot: Vec<T>,
        count: usize,
        keep: impl Fn(&T) -> bool,
    ) -> NodeValues<T>
    where
        Self: Sized;

    /// The dense slot-CSR view of this graph (see [`Topology`]). The
    /// default builds a fresh one per call; [`crate::DirectedGraph`] and
    /// [`crate::UndirectedGraph`] override it with a per-version cache, so
    /// repeated kernels on one graph translate ids to slots once.
    fn topology(&self) -> Arc<Topology>
    where
        Self: Sized,
    {
        Arc::new(Topology::build(self, false))
    }
}
