//! Graph algorithms for Ringo.
//!
//! This crate plays the role SNAP plays for the paper's system: the library
//! of "out-of-the-box graph constructs and algorithms" applied to the
//! in-memory graph structures. It holds the kernels the paper benchmarks —
//!
//! * parallel **PageRank** and parallel **triangle counting** (Table 3),
//! * sequential **3-core**, **single-source shortest paths**, and
//!   **strongly connected components** (Table 6),
//!
//! — and the rest of the toolkit the paper lists for the analyst: HITS,
//! clustering coefficients, BFS/DFS, weighted shortest paths, weakly
//! connected components, k-core decomposition, degree, closeness,
//! harmonic, betweenness and eigenvector centrality, label-propagation
//! community detection, the triad census, and structural statistics
//! (degree histograms, approximate and effective diameter). A kernel off
//! these two lists belongs here only together with the facade verb, shell
//! command, example or benchmark workload that reaches it.
//!
//! Algorithms that read only the directed topology are generic over
//! [`ringo_graph::DirectedTopology`], so one kernel serves every graph
//! type that implements it.

#![warn(missing_docs)]

pub mod bfs;
pub mod centrality;
pub mod clustering;
pub mod community;
pub mod components;
pub mod eigen;
pub mod frontier;
pub mod hits;
pub mod kcore;
pub mod pagerank;
pub mod sssp;
pub mod stats;
mod sweep;
pub mod traversal;
pub mod triads;
pub mod triangles;
pub mod weighted;

pub use bfs::{bfs_distances, bfs_order, bfs_tree, Direction};
pub use centrality::{
    betweenness_centrality, betweenness_centrality_sampled, closeness_centrality,
    degree_centrality, harmonic_centrality,
};
pub use clustering::{clustering_coefficient, node_clustering};
pub use community::label_propagation;
pub use components::{strongly_connected_components, weakly_connected_components, Components};
pub use eigen::{eigenvector_centrality, personalized_pagerank};
pub use frontier::{FrontierEngine, FrontierState, UNVISITED};
pub use hits::{hits, HitsScores};
pub use kcore::{core_numbers, k_core};
pub use pagerank::{pagerank, PageRankConfig};
pub use sssp::{sssp_dijkstra, sssp_unweighted};
pub use stats::{approx_diameter, degree_histogram, effective_diameter};
pub use traversal::{dfs_order, has_cycle, topological_sort};
pub use triads::{triad_census, TriadCensus, TRIAD_NAMES};
pub use triangles::{count_triangles, node_triangles};
pub use weighted::{dijkstra_weighted, pagerank_weighted};
