//! Directed graphs with `f64` edge weights.
//!
//! Graph-analytics workflows constantly produce weighted edges — "number
//! of answers accepted between two users", "transitions between pages" —
//! usually via a group-by on an edge table. [`WeightedDigraph`] is a
//! [`DirectedGraph`] plus one row of weights per out-row, position for
//! position with its neighbour slots, so the unweighted traversal
//! machinery carries over and weight lookup is the same binary search as
//! `has_edge`.

use crate::nbrs::Rows;
use crate::topology::DirectedTopology;
use crate::{DirectedGraph, NodeId, NodeValues};
use std::sync::Arc;

/// A dynamic directed graph with one `f64` weight per edge.
///
/// A [`DirectedGraph`] (rows of neighbour slots, sorted by slot) and its
/// out-rows' weights, stored like the rows themselves: a slab every clone
/// shares, and a per-version overlay of the rows an edit touched. Adding
/// an existing edge *accumulates* onto its weight (the natural semantics
/// for count/strength weights) rather than failing.
#[derive(Clone, Debug, Default)]
pub struct WeightedDigraph {
    graph: DirectedGraph,
    /// `weights.row(s)[k]` is the weight of the edge to `graph.out_row(s)[k]`.
    weights: Rows<f64>,
}

impl WeightedDigraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph pre-sized for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            graph: DirectedGraph::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// `graph` with a weight on each edge: the sum, in the order given, of
    /// the weights `weights` lists for it. The sums go into one slab laid
    /// out like the out-rows that starts at `-0.0`, which adds to any
    /// non-NaN `x` as `x` bit for bit, so each weight is the left fold
    /// `add_edge` would make of the same list.
    ///
    /// # Panics
    /// When `weights` names an edge `graph` does not have.
    pub fn from_out_weights(
        graph: DirectedGraph,
        weights: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> Self {
        let mut off = Vec::with_capacity(graph.n_slots() + 1);
        off.push(0);
        for s in 0..graph.n_slots() {
            off.push(off[s] + graph.out_row(s).len());
        }
        let mut slab: Arc<[f64]> = std::iter::repeat_n(-0.0, graph.edge_count()).collect();
        let sums = Arc::get_mut(&mut slab).expect("fresh slab");
        let mut g = Self {
            graph,
            weights: Rows::default(),
        };
        for (src, dst, w) in weights {
            let (s, pos) = g.position(src, dst).expect("a weight names an edge");
            sums[off[s] + pos] += w;
        }
        g.weights = Rows::bulk(&off, slab);
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of distinct directed edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// True when `id` is a node.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.graph.has_node(id)
    }

    /// Weight of edge `src -> dst`, or `None` if absent.
    pub fn weight(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let (s, pos) = self.position(src, dst)?;
        Some(self.weights.row(s)[pos])
    }

    /// Adds node `id`. Returns `false` if it already existed.
    pub fn add_node(&mut self, id: NodeId) -> bool {
        self.graph.add_node(id)
    }

    /// Adds weight `w` on the edge `src -> dst`, creating nodes and the
    /// edge as needed. Returns the new accumulated weight.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, w: f64) -> f64 {
        let added = self.graph.add_edge(src, dst);
        let (s, pos) = self.position(src, dst).expect("the edge just added");
        let row = self.weights.to_mut(s, self.graph.n_slots());
        if added {
            row.insert(pos, w);
        } else {
            row[pos] += w;
        }
        row[pos]
    }

    /// Removes the edge `src -> dst` entirely; returns its weight.
    pub fn del_edge(&mut self, src: NodeId, dst: NodeId) -> Option<f64> {
        let (s, pos) = self.position(src, dst)?;
        self.graph.del_edge(src, dst);
        Some(self.weights.to_mut(s, self.graph.n_slots()).remove(pos))
    }

    /// Out-neighbors (in slot order) and their weights.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let ws = self.slot_of(id).map_or(&[][..], |s| self.weights.row(s));
        self.graph.out_nbrs(id).zip(ws.iter().copied())
    }

    /// The weights of the out-edges of `slot`, position for position with
    /// its out-row ([`DirectedTopology::out_row`]).
    pub fn out_weights(&self, slot: usize) -> &[f64] {
        self.weights.row(slot)
    }

    /// Total outgoing weight of `id` (0 if absent).
    pub fn out_strength(&self, id: NodeId) -> f64 {
        self.slot_of(id)
            .map_or(0.0, |s| self.weights.row(s).iter().sum())
    }

    /// Iterates over node ids in slot order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.node_ids()
    }

    /// Iterates over `(src, dst, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        let weights = (0..self.n_slots()).flat_map(|s| self.weights.row(s).iter().copied());
        self.graph.edges().zip(weights).map(|((s, d), w)| (s, d, w))
    }

    /// Drops weights: the plain directed graph, sharing every row.
    pub fn to_unweighted(&self) -> DirectedGraph {
        self.graph.clone()
    }

    /// Approximate heap footprint in bytes: the graph's and the weights'.
    pub fn mem_size(&self) -> usize {
        self.graph.mem_size() + self.weights.mem_size()
    }

    /// The slot of `src` and the position of `dst` in its out-row, when
    /// the edge `src -> dst` exists.
    fn position(&self, src: NodeId, dst: NodeId) -> Option<(usize, usize)> {
        let (s, d) = (self.slot_of(src)?, self.slot_of(dst)?);
        Some((s, self.out_row(s).binary_search(&(d as u32)).ok()?))
    }
}

impl DirectedTopology for WeightedDigraph {
    fn n_slots(&self) -> usize {
        self.graph.n_slots()
    }

    fn slot_id(&self, slot: usize) -> Option<NodeId> {
        self.graph.slot_id(slot)
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.graph.slot_of(id)
    }

    fn out_row(&self, slot: usize) -> &[u32] {
        self.graph.out_row(slot)
    }

    fn in_row(&self, slot: usize) -> &[u32] {
        self.graph.in_row(slot)
    }

    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    fn node_values<T>(
        &self,
        per_slot: Vec<T>,
        count: usize,
        keep: impl Fn(&T) -> bool,
    ) -> NodeValues<T> {
        self.graph.node_values(per_slot, count, keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_accumulates_weight() {
        let mut g = WeightedDigraph::new();
        assert_eq!(g.add_edge(1, 2, 1.5), 1.5);
        assert_eq!(g.add_edge(1, 2, 2.0), 3.5);
        assert_eq!(g.edge_count(), 1, "same edge, accumulated");
        assert_eq!(g.weight(1, 2), Some(3.5));
        assert_eq!(g.weight(2, 1), None);
    }

    #[test]
    fn out_edges_and_strength() {
        let mut g = WeightedDigraph::new();
        g.add_edge(1, 3, 2.0);
        g.add_edge(1, 2, 1.0);
        let e: Vec<_> = g.out_edges(1).collect();
        assert_eq!(e, vec![(3, 2.0), (2, 1.0)], "sorted by neighbor slot");
        assert_eq!(g.out_strength(1), 3.0);
        assert_eq!(g.out_strength(99), 0.0);
    }

    #[test]
    fn del_edge_returns_weight() {
        let mut g = WeightedDigraph::new();
        g.add_edge(1, 2, 4.0);
        assert_eq!(g.del_edge(1, 2), Some(4.0));
        assert_eq!(g.del_edge(1, 2), None);
        assert_eq!(g.edge_count(), 0);
        assert!(g.has_node(2));
    }

    #[test]
    fn topology_trait_and_unweighted_view() {
        let mut g = WeightedDigraph::new();
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 1, 1.0);
        let plain = g.to_unweighted();
        assert_eq!(plain.edge_count(), 3);
        assert!(plain.has_edge(3, 1));
        // The trait view serves the shared algorithms.
        assert_eq!(DirectedTopology::node_count(&g), 3);
        let slot = g.slot_of(1).unwrap();
        assert_eq!(g.out_row(slot), &[g.slot_of(2).unwrap() as u32]);
        assert_eq!(g.in_row(slot), &[g.slot_of(3).unwrap() as u32]);
    }

    #[test]
    fn from_out_weights_folds_each_edge_in_order() {
        let mut plain = DirectedGraph::new();
        plain.add_edge(1, 2);
        plain.add_edge(2, 1);
        let w = [(2, 1, -0.0), (1, 2, 0.5), (2, 1, -0.0), (1, 2, 0.25)];
        let g = WeightedDigraph::from_out_weights(plain, w);
        assert_eq!(g.weight(1, 2), Some(0.75));
        assert_eq!(g.weight(2, 1).map(f64::to_bits), Some((-0.0f64).to_bits()));
    }

    #[test]
    #[should_panic(expected = "a weight names an edge")]
    fn from_out_weights_refuses_a_missing_edge() {
        let mut plain = DirectedGraph::new();
        plain.add_edge(1, 2);
        WeightedDigraph::from_out_weights(plain, [(2, 1, 1.0)]);
    }

    #[test]
    fn edges_iterator_carries_weights() {
        let mut g = WeightedDigraph::new();
        g.add_edge(5, 6, 0.5);
        g.add_edge(6, 5, 1.5);
        let mut e: Vec<_> = g.edges().collect();
        e.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(e, vec![(5, 6, 0.5), (6, 5, 1.5)]);
    }
}
