//! In-memory graph structures for Ringo.
//!
//! The paper (§2.2) represents a graph as "a hash table of nodes", each node
//! holding *sorted* adjacency vectors of neighboring nodes. The design
//! deliberately trades a little traversal speed against Compressed Sparse
//! Row (CSR) for cheap dynamic updates: deleting an edge costs time linear
//! in the node degree instead of linear in the total edge count.
//!
//! * [`DirectedGraph`] — the paper's representation for directed graphs:
//!   node hash index over slots, each slot holding sorted in- and
//!   out-neighbor vectors. Space is ~16 bytes per edge plus node overhead,
//!   "similar to those of the Compressed Sparse Row format".
//! * [`UndirectedGraph`] — same idea with a single neighbor vector per node.
//! * [`CsrGraph`] — a static CSR baseline used by the ablation benchmarks
//!   to quantify exactly the trade-off the paper describes.
//! * [`DirectedTopology`] — slot-addressed read access implemented by both
//!   directed representations so algorithms can run on either.
//! * [`Topology`] — the dense slot-CSR view kernels traverse: neighbor
//!   *slots* instead of ids, built once per graph version and cached on
//!   the graph value.

#![warn(missing_docs)]

pub mod csr;
pub mod directed;
pub mod io;
mod nbrs;
pub mod topology;
pub mod traits;
pub mod transform;
pub mod undirected;
pub mod weighted;

pub use csr::CsrGraph;
pub use directed::DirectedGraph;
pub use nbrs::{new_slab, AdjacencyStats, CompactStats};
pub use topology::Topology;
pub use traits::{DirectedTopology, Direction};
pub use undirected::UndirectedGraph;
pub use weighted::WeightedDigraph;

/// External node identifier. Following SNAP, ids are arbitrary 64-bit
/// integers supplied by the user (e.g. raw user ids from a table), not
/// required to be dense. `i64::MIN` is reserved.
pub type NodeId = i64;
