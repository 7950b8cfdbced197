//! Directed graphs with `f64` edge weights.
//!
//! Graph-analytics workflows constantly produce weighted edges — "number
//! of answers accepted between two users", "transitions between pages" —
//! usually via a group-by on an edge table. [`WeightedDigraph`] stores
//! each node's out-weights in a vector parallel to its out-row of
//! neighbour slots, so the unweighted traversal machinery carries over
//! and weight lookup is the same binary search as `has_edge`.

use crate::directed::Nbrs;
use crate::nbrs::Nodes;
use crate::topology::DirectedTopology;
use crate::{NodeId, NodeValues};

#[derive(Clone, Debug, Default)]
struct WNodeCell {
    in_nbrs: Vec<u32>,
    out_nbrs: Vec<u32>,
    out_weights: Vec<f64>,
}

/// A dynamic directed graph with one `f64` weight per edge.
///
/// Mirrors [`crate::DirectedGraph`] (rows of neighbour slots, sorted by
/// slot); adding an existing edge *accumulates* onto its weight (the
/// natural semantics for count/strength weights) rather than failing.
#[derive(Clone, Debug, Default)]
pub struct WeightedDigraph {
    nodes: Nodes,
    /// Per slot: the node's rows and weights. No node is ever deleted, so
    /// every slot is live.
    cells: Vec<WNodeCell>,
    n_edges: usize,
}

impl WeightedDigraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph pre-sized for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            nodes: Nodes::with_capacity(nodes),
            cells: Vec::with_capacity(nodes),
            n_edges: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct directed edges.
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// True when `id` is a node.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.nodes.slot(id).is_some()
    }

    /// Weight of edge `src -> dst`, or `None` if absent.
    pub fn weight(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let c = self.cell(src)?;
        let pos = c.out_nbrs.binary_search(&self.nodes.slot(dst)?).ok()?;
        Some(c.out_weights[pos])
    }

    /// Adds node `id`. Returns `false` if it already existed.
    pub fn add_node(&mut self, id: NodeId) -> bool {
        self.ensure_node(id).1
    }

    /// The slot of node `id`, and whether it had to be added first: no
    /// slot is ever freed, so an added node takes the next one.
    fn ensure_node(&mut self, id: NodeId) -> (u32, bool) {
        let (slot, added) = self.nodes.ensure(id);
        if added {
            self.cells.push(WNodeCell::default());
        }
        (slot, added)
    }

    /// Adds weight `w` on the edge `src -> dst`, creating nodes and the
    /// edge as needed. Returns the new accumulated weight.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, w: f64) -> f64 {
        let (s, _) = self.ensure_node(src);
        let (d, _) = self.ensure_node(dst);
        let sc = &mut self.cells[s as usize];
        let pos = match sc.out_nbrs.binary_search(&d) {
            Ok(pos) => {
                sc.out_weights[pos] += w;
                return sc.out_weights[pos];
            }
            Err(pos) => pos,
        };
        sc.out_nbrs.insert(pos, d);
        sc.out_weights.insert(pos, w);
        let dc = &mut self.cells[d as usize];
        let pos = dc
            .in_nbrs
            .binary_search(&s)
            .expect_err("in/out adjacency out of sync");
        dc.in_nbrs.insert(pos, s);
        self.n_edges += 1;
        w
    }

    /// Removes the edge `src -> dst` entirely; returns its weight.
    pub fn del_edge(&mut self, src: NodeId, dst: NodeId) -> Option<f64> {
        let (s, d) = (self.nodes.slot(src)?, self.nodes.slot(dst)?);
        let sc = &mut self.cells[s as usize];
        let pos = sc.out_nbrs.binary_search(&d).ok()?;
        sc.out_nbrs.remove(pos);
        let w = sc.out_weights.remove(pos);
        let dc = &mut self.cells[d as usize];
        let pos = dc.in_nbrs.binary_search(&s).expect("adjacency in sync");
        dc.in_nbrs.remove(pos);
        self.n_edges -= 1;
        Some(w)
    }

    /// Out-neighbors (in slot order) and their weights.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let (nbrs, ws): (&[u32], &[f64]) = match self.cell(id) {
            Some(c) => (&c.out_nbrs, &c.out_weights),
            None => (&[], &[]),
        };
        Nbrs::new(nbrs, self).zip(ws.iter().copied())
    }

    /// The weights of the out-edges of `slot`, position for position with
    /// its out-row ([`DirectedTopology::out_row`]).
    pub fn out_weights(&self, slot: usize) -> &[f64] {
        &self.cells[slot].out_weights
    }

    /// Total outgoing weight of `id` (0 if absent).
    pub fn out_strength(&self, id: NodeId) -> f64 {
        self.cell(id).map_or(0.0, |c| c.out_weights.iter().sum())
    }

    /// Iterates over node ids in slot order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.live().map(|(_, id)| id)
    }

    /// Iterates over `(src, dst, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes.live().flat_map(move |(s, id)| {
            let c = &self.cells[s];
            Nbrs::new(&c.out_nbrs, self)
                .zip(&c.out_weights)
                .map(move |(d, w)| (id, d, *w))
        })
    }

    /// Drops weights, producing the plain directed graph (live nodes in
    /// slot order).
    pub fn to_unweighted(&self) -> crate::DirectedGraph {
        crate::transform::directed_copy(self, |_| true)
    }

    /// Approximate heap footprint in bytes.
    pub fn mem_size(&self) -> usize {
        let mut bytes = self.nodes.mem_size();
        bytes += self.cells.capacity() * std::mem::size_of::<WNodeCell>();
        for c in &self.cells {
            bytes += (c.in_nbrs.capacity() + c.out_nbrs.capacity()) * std::mem::size_of::<u32>()
                + c.out_weights.capacity() * std::mem::size_of::<f64>();
        }
        bytes
    }

    #[inline]
    fn cell(&self, id: NodeId) -> Option<&WNodeCell> {
        Some(&self.cells[self.nodes.slot(id)? as usize])
    }
}

impl DirectedTopology for WeightedDigraph {
    fn n_slots(&self) -> usize {
        self.nodes.n_slots()
    }

    fn slot_id(&self, slot: usize) -> Option<NodeId> {
        self.nodes.id(slot)
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.nodes.slot(id).map(|s| s as usize)
    }

    fn out_row(&self, slot: usize) -> &[u32] {
        &self.cells[slot].out_nbrs
    }

    fn in_row(&self, slot: usize) -> &[u32] {
        &self.cells[slot].in_nbrs
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn edge_count(&self) -> usize {
        self.n_edges
    }

    fn node_values<T>(
        &self,
        per_slot: Vec<T>,
        count: usize,
        keep: impl Fn(&T) -> bool,
    ) -> NodeValues<T> {
        NodeValues::pack(self.nodes.index(), self, per_slot, count, keep)
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
    fn edges_iterator_carries_weights() {
        let mut g = WeightedDigraph::new();
        g.add_edge(5, 6, 0.5);
        g.add_edge(6, 5, 1.5);
        let mut e: Vec<_> = g.edges().collect();
        e.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(e, vec![(5, 6, 0.5), (6, 5, 1.5)]);
    }
}
