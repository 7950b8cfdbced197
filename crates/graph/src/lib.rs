//! In-memory graph structures for Ringo.
//!
//! The paper (§2.2) represents a graph as "a hash table of nodes", each node
//! holding *sorted* adjacency vectors of neighboring nodes. The design
//! deliberately trades a little traversal speed against Compressed Sparse
//! Row (CSR) for cheap dynamic updates: deleting an edge costs time linear
//! in the node degree instead of linear in the total edge count.
//!
//! * [`DirectedGraph`] — the paper's representation for directed graphs:
//!   an id index over slots ([`Rank`] plus an overlay), each slot holding
//!   sorted in- and out-neighbor rows. A neighbour is stored as the `u32`
//!   slot of its node, so space is ~8 bytes per edge (4 in each
//!   orientation) plus node overhead — below the Compressed Sparse Row
//!   figure the paper compares against.
//! * [`UndirectedGraph`] — same idea with a single neighbor row per node.
//! * [`DirectedTopology`] — the slot-row read interface implemented by
//!   every graph type, so one kernel runs on all of them and reads the
//!   rows in place.
//! * [`Nbrs`] — a node's neighbours as ids, mapped from its row at the
//!   edge of the API.
//! * [`NodeValues`] — a kernel's per-node answer as slot-ordered id and
//!   value columns that look ids up through the graph's own index.

#![warn(missing_docs)]

pub mod directed;
pub mod io;
mod nbrs;
pub mod topology;
pub mod transform;
pub mod undirected;
mod values;
pub mod weighted;

pub use directed::{DirectedGraph, Nbrs};
pub use nbrs::{new_slab, AdjacencyStats, CompactStats, Rank};
pub use topology::{DirectedTopology, Direction};
pub use undirected::UndirectedGraph;
pub use values::NodeValues;
pub use weighted::WeightedDigraph;

/// External node identifier. Following SNAP, ids are arbitrary 64-bit
/// integers supplied by the user (e.g. raw user ids from a table), not
/// required to be dense; every `i64` is a legal id.
pub type NodeId = i64;

/// Narrows a slot index to the `u32` that node indexes and adjacency rows
/// store.
///
/// # Panics
/// When `slot` does not fit: a graph holds at most `u32::MAX` + 1 slots.
#[inline]
pub(crate) fn slot_u32(slot: usize) -> u32 {
    u32::try_from(slot).unwrap_or_else(|_| {
        panic!(
            "slot {slot} is past the graph's limit of {} slots (slots are u32)",
            u32::MAX as u64 + 1
        )
    })
}

#[cfg(test)]
mod tests {
    use super::slot_u32;

    #[test]
    fn slot_u32_keeps_every_slot_that_fits() {
        assert_eq!(slot_u32(0), 0);
        assert_eq!(slot_u32(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "past the graph's limit of 4294967296 slots")]
    fn slot_u32_refuses_to_truncate() {
        slot_u32(u32::MAX as usize + 1);
    }
}
