//! Directed graphs with `f64` edge weights.
//!
//! Graph-analytics workflows constantly produce weighted edges — "number
//! of answers accepted between two users", "transitions between pages" —
//! usually via a group-by on an edge table. [`WeightedDigraph`] stores
//! each node's out-weights in a vector parallel to its sorted adjacency
//! vector, so the unweighted traversal machinery carries over and weight
//! lookup is the same binary search as `has_edge`.

use crate::traits::DirectedTopology;
use crate::{slot_u32, NodeId, NodeValues};
use ringo_concurrent::IntHashTable;
use std::sync::Arc;

#[derive(Clone, Debug, Default)]
struct WNodeCell {
    id: NodeId,
    in_nbrs: Vec<NodeId>,
    out_nbrs: Vec<NodeId>,
    out_weights: Vec<f64>,
}

/// A dynamic directed graph with one `f64` weight per edge.
///
/// Mirrors [`crate::DirectedGraph`]; adding an existing edge *accumulates*
/// onto its weight (the natural semantics for count/strength weights)
/// rather than failing.
#[derive(Clone, Debug, Default)]
pub struct WeightedDigraph {
    index: Arc<IntHashTable<u32>>,
    nodes: Vec<Option<WNodeCell>>,
    free: Vec<u32>,
    n_nodes: usize,
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
            index: Arc::new(IntHashTable::with_capacity(nodes)),
            nodes: Vec::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Number of distinct directed edges.
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// True when `id` is a node.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.index.contains(id)
    }

    /// Weight of edge `src -> dst`, or `None` if absent.
    pub fn weight(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let c = self.cell(src)?;
        let pos = c.out_nbrs.binary_search(&dst).ok()?;
        Some(c.out_weights[pos])
    }

    /// Adds node `id`. Returns `false` if it already existed.
    pub fn add_node(&mut self, id: NodeId) -> bool {
        if self.index.contains(id) {
            return false;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s as usize] = Some(WNodeCell {
                    id,
                    ..WNodeCell::default()
                });
                s
            }
            None => {
                let slot = slot_u32(self.nodes.len());
                self.nodes.push(Some(WNodeCell {
                    id,
                    ..WNodeCell::default()
                }));
                slot
            }
        };
        Arc::make_mut(&mut self.index).insert(id, slot);
        self.n_nodes += 1;
        true
    }

    /// Adds weight `w` on the edge `src -> dst`, creating nodes and the
    /// edge as needed. Returns the new accumulated weight.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, w: f64) -> f64 {
        self.add_node(src);
        self.add_node(dst);
        let mut fresh = false;
        let total = {
            let sc = self.cell_mut(src).expect("src ensured");
            match sc.out_nbrs.binary_search(&dst) {
                Ok(pos) => {
                    sc.out_weights[pos] += w;
                    sc.out_weights[pos]
                }
                Err(pos) => {
                    sc.out_nbrs.insert(pos, dst);
                    sc.out_weights.insert(pos, w);
                    fresh = true;
                    w
                }
            }
        };
        if fresh {
            let dc = self.cell_mut(dst).expect("dst ensured");
            let pos = dc
                .in_nbrs
                .binary_search(&src)
                .expect_err("in/out adjacency out of sync");
            dc.in_nbrs.insert(pos, src);
            self.n_edges += 1;
        }
        total
    }

    /// Removes the edge `src -> dst` entirely; returns its weight.
    pub fn del_edge(&mut self, src: NodeId, dst: NodeId) -> Option<f64> {
        let w = {
            let sc = self.cell_mut(src)?;
            let pos = sc.out_nbrs.binary_search(&dst).ok()?;
            sc.out_nbrs.remove(pos);
            sc.out_weights.remove(pos)
        };
        let dc = self.cell_mut(dst).expect("edge endpoints exist");
        let pos = dc.in_nbrs.binary_search(&src).expect("adjacency in sync");
        dc.in_nbrs.remove(pos);
        self.n_edges -= 1;
        Some(w)
    }

    /// Sorted out-neighbors and their weights.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let c = self.cell(id);
        let (nbrs, ws): (&[NodeId], &[f64]) = match c {
            Some(c) => (&c.out_nbrs, &c.out_weights),
            None => (&[], &[]),
        };
        nbrs.iter().copied().zip(ws.iter().copied())
    }

    /// Total outgoing weight of `id` (0 if absent).
    pub fn out_strength(&self, id: NodeId) -> f64 {
        self.cell(id).map_or(0.0, |c| c.out_weights.iter().sum())
    }

    /// Iterates over node ids in slot order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().flatten().map(|c| c.id)
    }

    /// Iterates over `(src, dst, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes.iter().flatten().flat_map(|c| {
            c.out_nbrs
                .iter()
                .zip(&c.out_weights)
                .map(move |(d, w)| (c.id, *d, *w))
        })
    }

    /// Drops weights, producing the plain directed graph.
    pub fn to_unweighted(&self) -> crate::DirectedGraph {
        let parts = self
            .nodes
            .iter()
            .flatten()
            .map(|c| (c.id, c.in_nbrs.clone(), c.out_nbrs.clone()))
            .collect();
        crate::DirectedGraph::from_parts(parts)
    }

    /// Approximate heap footprint in bytes.
    pub fn mem_size(&self) -> usize {
        let mut bytes = self.index.mem_size();
        bytes += self.nodes.capacity() * std::mem::size_of::<Option<WNodeCell>>();
        for c in self.nodes.iter().flatten() {
            bytes +=
                (c.in_nbrs.capacity() + c.out_nbrs.capacity()) * 8 + c.out_weights.capacity() * 8;
        }
        bytes
    }

    #[inline]
    fn cell(&self, id: NodeId) -> Option<&WNodeCell> {
        let slot = *self.index.get(id)?;
        self.nodes[slot as usize].as_ref()
    }

    #[inline]
    fn cell_mut(&mut self, id: NodeId) -> Option<&mut WNodeCell> {
        let slot = *self.index.get(id)?;
        self.nodes[slot as usize].as_mut()
    }
}

impl DirectedTopology for WeightedDigraph {
    fn n_slots(&self) -> usize {
        self.nodes.len()
    }

    fn slot_id(&self, slot: usize) -> Option<NodeId> {
        self.nodes[slot].as_ref().map(|c| c.id)
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.index.get(id).map(|s| *s as usize)
    }

    fn out_nbrs_of_slot(&self, slot: usize) -> &[NodeId] {
        self.nodes[slot].as_ref().map_or(&[], |c| &c.out_nbrs)
    }

    fn in_nbrs_of_slot(&self, slot: usize) -> &[NodeId] {
        self.nodes[slot].as_ref().map_or(&[], |c| &c.in_nbrs)
    }

    fn node_count(&self) -> usize {
        self.n_nodes
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
        NodeValues::pack(&self.index, self, per_slot, count, keep)
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
        assert_eq!(e, vec![(2, 1.0), (3, 2.0)], "sorted by neighbor id");
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
        use crate::traits::DirectedTopology;
        assert_eq!(DirectedTopology::node_count(&g), 3);
        let slot = g.slot_of(1).unwrap();
        assert_eq!(g.out_nbrs_of_slot(slot), &[2]);
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
