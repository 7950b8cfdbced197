//! The slot-row read interface every graph type implements:
//! [`DirectedTopology`].
//!
//! A graph stores each node's neighbours as the `u32` **slots** of the
//! neighbouring nodes, one ascending row per orientation — the storage
//! itself, not a view of it. A kernel keeps its per-node state in flat
//! slot-indexed arrays and walks those rows in place: no id → slot hash
//! probe per edge, no translated copy to build, cache or patch after an
//! edit. Ids appear only at the edge of the API ([`DirectedTopology::slot_id`],
//! the graphs' id accessors).
//!
//! On a graph whose slots were assigned in ascending id order — every
//! graph built in bulk: conversions, `induced`, `k_core`, the loaders —
//! slot order *is* id order. Nodes added one at a time take the next free
//! slot, so on a graph edited that way a row is in slot order, which is
//! not id order.

use crate::{NodeId, NodeValues};

/// Which edges a directed traversal follows.
///
/// Lives in the graph layer (rather than with any one algorithm) because
/// both the traversal kernels in `ringo-algo` and the row accessors of
/// [`DirectedTopology`] are parameterized by it.
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
/// node deletion) in which case [`DirectedTopology::slot_id`] returns
/// `None` and its rows are empty. Algorithms allocate their per-node state
/// as flat arrays indexed by slot and read neighbours as slots from the
/// rows, which are ascending; [`DirectedTopology::slot_of`] is for the
/// ids a caller hands in.
pub trait DirectedTopology: Sync {
    /// Upper bound (exclusive) on slot handles.
    fn n_slots(&self) -> usize;
    /// External id stored in `slot`, or `None` for vacant slots.
    fn slot_id(&self, slot: usize) -> Option<NodeId>;
    /// Slot holding node `id`.
    fn slot_of(&self, id: NodeId) -> Option<usize>;
    /// Out-neighbour slots of `slot`, ascending (empty when vacant).
    fn out_row(&self, slot: usize) -> &[u32];
    /// In-neighbour slots of `slot`, ascending (empty when vacant).
    fn in_row(&self, slot: usize) -> &[u32];
    /// Number of (live) nodes.
    fn node_count(&self) -> usize;
    /// Number of directed edges: the total length of the out-rows.
    fn edge_count(&self) -> usize;

    /// Whether one row per node serves both orientations (an undirected
    /// graph: its in-rows are its out-rows).
    fn is_symmetric(&self) -> bool {
        false
    }

    /// The rows a traversal along `dir` expands from `slot`, in order.
    /// The second is empty except for [`Direction::Both`] on an
    /// asymmetric graph, which walks the out-row then the in-row.
    #[inline]
    fn rows(&self, slot: usize, dir: Direction) -> [&[u32]; 2] {
        match dir {
            Direction::Out => [self.out_row(slot), &[]],
            Direction::In => [self.in_row(slot), &[]],
            Direction::Both if self.is_symmetric() => [self.out_row(slot), &[]],
            Direction::Both => [self.out_row(slot), self.in_row(slot)],
        }
    }

    /// Total length of [`DirectedTopology::rows`] at `slot`.
    #[inline]
    fn degree(&self, slot: usize, dir: Direction) -> u32 {
        let [a, b] = self.rows(slot, dir);
        (a.len() + b.len()) as u32
    }

    /// Sum of [`DirectedTopology::degree`] over all slots.
    fn total_degree(&self, dir: Direction) -> u64 {
        let arcs = self.edge_count() as u64;
        if dir == Direction::Both && !self.is_symmetric() {
            2 * arcs
        } else {
            arcs
        }
    }

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
        assert!(!g.is_symmetric());
        let ids = |row: &[u32]| -> Vec<NodeId> {
            row.iter()
                .map(|&v| g.slot_id(v as usize).expect("row names live slots"))
                .collect()
        };
        for s in 0..g.n_slots() {
            let (out, inn) = match g.slot_id(s) {
                Some(id) => (g.out_nbrs(id).collect(), g.in_nbrs(id).collect()),
                None => (vec![], vec![]),
            };
            assert_eq!(ids(g.out_row(s)), out);
            assert_eq!(ids(g.in_row(s)), inn);
            assert!(g.out_row(s).is_sorted() && g.in_row(s).is_sorted());
            assert_eq!(
                g.degree(s, Direction::Both),
                g.degree(s, Direction::Out) + g.degree(s, Direction::In)
            );
        }
        assert_eq!(g.total_degree(Direction::Out), g.edge_count() as u64);
        assert_eq!(g.total_degree(Direction::Both), 2 * g.edge_count() as u64);
    }

    #[test]
    fn symmetric_rows_are_stored_once() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(g.is_symmetric());
        let s2 = g.slot_of(2).expect("node 2");
        assert_eq!(g.out_row(s2).as_ptr(), g.in_row(s2).as_ptr());
        assert_eq!(g.rows(s2, Direction::Both)[1], &[] as &[u32]);
        assert_eq!(DirectedTopology::degree(&g, s2, Direction::Both), 2);
        assert_eq!(g.total_degree(Direction::Both), 4);
    }
}
