//! Graph algorithms for Ringo.
//!
//! This crate plays the role SNAP plays for the paper's system: the library
//! of "out-of-the-box graph constructs and algorithms" applied to the
//! in-memory graph structures. It includes both kernels the paper
//! benchmarks —
//!
//! * parallel **PageRank** and parallel **triangle counting** (Table 3),
//! * sequential **3-core**, **single-source shortest paths**, and
//!   **strongly connected components** (Table 6),
//!
//! — and the broader toolkit an interactive analyst expects: HITS,
//! clustering coefficients, BFS/DFS, weighted shortest paths, weakly
//! connected components, k-core decomposition, degree/closeness/betweenness
//! centrality, label-propagation community detection, and structural
//! statistics (degree histograms, approximate diameter).
//!
//! Algorithms that read only the directed topology are generic over
//! [`ringo_graph::DirectedTopology`], so one kernel serves every graph
//! type that implements it.

#![warn(missing_docs)]

pub mod anf;
pub mod bfs;
pub mod bipartite;
pub mod centrality;
pub mod clustering;
pub mod community;
pub mod components;
pub mod connectivity;
pub mod eigen;
pub mod frontier;
pub mod hits;
pub mod independent;
mod intersect;
pub mod kcore;
pub mod ktruss;
pub mod pagerank;
pub mod quality;
pub mod random_walk;
pub mod similarity;
pub mod sssp;
pub mod stats;
mod sweep;
pub mod traversal;
pub mod triads;
pub mod triangles;
pub mod weighted;

pub use anf::{anf_effective_diameter, approx_neighborhood_function};
pub use bfs::{bfs_distances, bfs_order, bfs_tree, Direction};
pub use bipartite::{bipartite_sides, is_bipartite, project_onto};
pub use centrality::{
    betweenness_centrality, betweenness_centrality_sampled, closeness_centrality,
    degree_centrality, harmonic_centrality,
};
pub use clustering::{clustering_coefficient, node_clustering};
pub use community::label_propagation;
pub use components::{strongly_connected_components, weakly_connected_components, Components};
pub use connectivity::{cut_structure, is_reachable, reachable_from, CutStructure};
pub use eigen::{eigenvector_centrality, personalized_pagerank};
pub use frontier::{FrontierEngine, FrontierState, UNVISITED};
pub use hits::{hits, HitsScores};
pub use independent::{greedy_coloring, maximal_independent_set, maximal_matching};
pub use kcore::{core_numbers, k_core};
pub use ktruss::{k_truss, truss_numbers};
pub use pagerank::{pagerank, PageRankConfig};
pub use quality::{conductance, modularity};
pub use random_walk::{approximate_ppr, random_walk, WalkRng};
pub use similarity::{
    adamic_adar, common_neighbors, jaccard_similarity, preferential_attachment_score,
    top_jaccard_candidates,
};
pub use sssp::{sssp_dijkstra, sssp_unweighted};
pub use stats::{
    approx_diameter, degree_assortativity, degree_histogram, effective_diameter, reciprocity,
};
pub use traversal::{dfs_order, has_cycle, topological_sort};
pub use triads::{triad_census, TriadCensus, TRIAD_NAMES};
pub use triangles::{count_triangles, node_triangles};
pub use weighted::{dijkstra_weighted, pagerank_weighted};
