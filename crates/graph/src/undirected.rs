//! Dynamic undirected graph: node hash table with one sorted neighbor
//! vector per node.

use crate::directed::Nbrs;
use crate::nbrs::{AdjacencyStats, CompactStats, Nodes, Rows};
use crate::topology::DirectedTopology;
use crate::{slot_u32, NodeId, NodeValues};
use std::sync::Arc;

/// A dynamic undirected graph (no multi-edges; self-loops allowed and
/// stored once).
///
/// Mirrors [`crate::DirectedGraph`] with a single row of neighbour slots
/// per node, sorted by slot: a bulk-built slot costs 12 bytes beside the
/// index, and `clone` allocates nothing. Each undirected edge `{a, b}`
/// appears in both endpoints' rows (a self-loop appears once, in its own
/// node's row).
#[derive(Clone, Debug, Default)]
pub struct UndirectedGraph {
    nodes: Nodes,
    /// Neighbour slots; empty for a vacant slot.
    rows: Rows,
    n_edges: usize,
    n_loops: usize,
}

impl UndirectedGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph pre-sized for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            nodes: Nodes::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges (each counted once).
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 0
    }

    /// True when `id` is a node of the graph.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.nodes.slot(id).is_some()
    }

    /// True when the undirected edge `{a, b}` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        match (self.nodes.slot(a), self.nodes.slot(b)) {
            (Some(sa), Some(sb)) => self.rows.row(sa as usize).binary_search(&sb).is_ok(),
            _ => false,
        }
    }

    /// Adds node `id`. Returns `false` if it already existed.
    pub fn add_node(&mut self, id: NodeId) -> bool {
        self.nodes.ensure(id).1
    }

    /// Adds the undirected edge `{a, b}`, creating missing endpoints.
    /// Returns `false` if the edge already existed.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let (sa, _) = self.nodes.ensure(a);
        let (sb, _) = self.nodes.ensure(b);
        let n = self.nodes.n_slots();
        let Err(pos) = self.rows.row(sa as usize).binary_search(&sb) else {
            return false;
        };
        self.rows.to_mut(sa as usize, n).insert(pos, sb);
        if sa != sb {
            let rb = self.rows.row(sb as usize);
            let pos = rb.binary_search(&sa).expect_err("adjacency out of sync");
            self.rows.to_mut(sb as usize, n).insert(pos, sa);
        }
        self.n_edges += 1;
        self.n_loops += usize::from(sa == sb);
        true
    }

    /// Deletes the undirected edge `{a, b}`. Returns `false` if absent.
    pub fn del_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let (Some(sa), Some(sb)) = (self.nodes.slot(a), self.nodes.slot(b)) else {
            return false;
        };
        let n = self.nodes.n_slots();
        let Ok(pos) = self.rows.row(sa as usize).binary_search(&sb) else {
            return false;
        };
        self.rows.to_mut(sa as usize, n).remove(pos);
        if sa != sb {
            let rb = self.rows.row(sb as usize);
            let pos = rb.binary_search(&sa).expect("adjacency in sync");
            self.rows.to_mut(sb as usize, n).remove(pos);
        }
        self.n_edges -= 1;
        self.n_loops -= usize::from(sa == sb);
        true
    }

    /// Deletes node `id` and all incident edges. Returns `false` if absent.
    pub fn del_node(&mut self, id: NodeId) -> bool {
        let Some(slot) = self.nodes.release(id) else {
            return false;
        };
        let n = self.nodes.n_slots();
        let row = std::mem::take(self.rows.to_mut(slot as usize, n));
        for &v in row.iter().filter(|&&v| v != slot) {
            let other = self.rows.to_mut(v as usize, n);
            let pos = other.binary_search(&slot).expect("adjacency in sync");
            other.remove(pos);
        }
        self.n_edges -= row.len();
        self.n_loops -= usize::from(row.binary_search(&slot).is_ok());
        true
    }

    /// Degree of `id` (self-loop counts once), or `None` if absent.
    pub fn degree(&self, id: NodeId) -> Option<usize> {
        self.nodes.slot(id).map(|s| self.rows.row(s as usize).len())
    }

    /// Neighbors of `id` in slot order (empty if absent) — id order unless
    /// nodes were added after a bulk build (see
    /// [`crate::DirectedGraph`]).
    pub fn nbrs(&self, id: NodeId) -> Nbrs<'_> {
        let row = self
            .nodes
            .slot(id)
            .map_or(&[][..], |s| self.rows.row(s as usize));
        Nbrs::new(row, self)
    }

    /// Iterates over node ids in slot order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.live().map(|(_, id)| id)
    }

    /// Iterates over undirected edges once each, as `(a, b)` with `a <= b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.live().flat_map(move |(s, id)| {
            Nbrs::new(self.rows.row(s), self)
                .filter(move |&n| n >= id)
                .map(move |n| (id, n))
        })
    }

    /// Heap footprint in bytes (see
    /// [`crate::DirectedGraph::mem_size`]).
    pub fn mem_size(&self) -> usize {
        self.nodes.mem_size() + self.rows.mem_size()
    }

    /// Adjacency-storage accounting (see
    /// [`crate::DirectedGraph::adjacency_stats`]).
    pub fn adjacency_stats(&self) -> AdjacencyStats {
        let mut stats = AdjacencyStats::default();
        self.rows
            .tally(self.nodes.live().map(|(s, _)| s), &mut stats);
        stats
    }

    /// Rewrites the rows into one fresh, exactly-sized slab (see
    /// [`crate::DirectedGraph::compact`]).
    pub fn compact(&mut self) -> CompactStats {
        let before = self.adjacency_stats();
        self.rows.compact(self.nodes.n_slots());
        CompactStats {
            before,
            after: self.adjacency_stats(),
        }
    }

    /// Builds a graph from `(id, deduplicated neighbor ids)` parts that
    /// are mutually consistent. Counterpart of
    /// [`crate::DirectedGraph::from_parts`].
    pub fn from_parts(parts: Vec<(NodeId, Vec<NodeId>)>) -> Self {
        let nodes = Nodes::bulk(parts.iter().map(|p| p.0).collect());
        let rows = Rows::packed(parts.iter().map(|p| nodes.slots_of(&p.1)));
        Self::from_rows(nodes, rows)
    }

    /// Bulk-builds a graph from slab-form adjacency: node `k` (id
    /// `ids[k]`, distinct, placed in slot `k`) owns the neighbour slots
    /// `slab[off[k]..off[k+1]]`, ascending and each below `ids.len()`,
    /// with each edge `{a, b}` present in both endpoints' runs (self-loops
    /// once). Undirected counterpart of
    /// [`crate::DirectedGraph::from_sorted_parts`]: one hash-table
    /// reservation, one `u32` offset a slot, and the slab itself taken
    /// over, not copied.
    ///
    /// # Panics
    /// Panics on duplicate ids; debug builds also check sortedness.
    pub fn from_sorted_parts(ids: Vec<NodeId>, off: &[usize], slab: Arc<[u32]>) -> Self {
        assert_eq!(
            off.len(),
            ids.len() + 1,
            "off must have one bound per node plus one"
        );
        Self::from_rows(Nodes::bulk(ids), Rows::bulk(off, slab))
    }

    /// The graph of bulk-built `nodes` and `rows`: every edge but a
    /// self-loop is in two rows.
    fn from_rows(nodes: Nodes, rows: Rows) -> Self {
        let n = nodes.n_slots();
        let ends: usize = (0..n).map(|k| rows.row(k).len()).sum();
        let loops = (0..n)
            .filter(|&k| rows.row(k).binary_search(&slot_u32(k)).is_ok())
            .count();
        Self {
            nodes,
            rows,
            n_edges: (ends - loops) / 2 + loops,
            n_loops: loops,
        }
    }
}

/// Undirected adjacency viewed as a symmetric directed topology: out- and
/// in-rows are the same row, so every `DirectedTopology` algorithm (BFS,
/// the frontier engine, reachability) runs unchanged with
/// `Direction::Out`. `edge_count` reports directed arcs — `2m` minus one
/// per self-loop — keeping degree sums and edge counts consistent.
impl DirectedTopology for UndirectedGraph {
    fn n_slots(&self) -> usize {
        self.nodes.n_slots()
    }

    #[inline]
    fn slot_id(&self, slot: usize) -> Option<NodeId> {
        self.nodes.id(slot)
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.nodes.slot(id).map(|s| s as usize)
    }

    #[inline]
    fn out_row(&self, slot: usize) -> &[u32] {
        self.rows.row(slot)
    }

    #[inline]
    fn in_row(&self, slot: usize) -> &[u32] {
        self.out_row(slot)
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn edge_count(&self) -> usize {
        2 * self.n_edges - self.n_loops
    }

    fn is_symmetric(&self) -> bool {
        true
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
    fn add_edge_is_symmetric() {
        let mut g = UndirectedGraph::new();
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(2, 1), "same undirected edge");
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 1));
        assert_eq!(g.nbrs(1), &[2]);
        assert_eq!(g.nbrs(2), &[1]);
    }

    #[test]
    fn self_loop_stored_once() {
        let mut g = UndirectedGraph::new();
        assert!(g.add_edge(3, 3));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(3), Some(1));
        assert_eq!(DirectedTopology::edge_count(&g), 1, "one arc");
        assert!(g.del_edge(3, 3));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(DirectedTopology::edge_count(&g), 0);
    }

    #[test]
    fn del_edge_both_directions() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        assert!(g.del_edge(2, 1), "delete by reversed endpoints");
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn del_node_updates_neighbors_and_count() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g.add_edge(1, 1);
        assert!(g.del_node(1));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(DirectedTopology::edge_count(&g), 2, "the loop left too");
        assert_eq!(g.nbrs(2), &[3]);
    }

    #[test]
    fn edges_iterated_once_each() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 3);
        let mut e: Vec<_> = g.edges().collect();
        e.sort_unstable();
        assert_eq!(e, vec![(1, 2), (2, 3), (3, 3)]);
    }

    #[test]
    fn from_parts_counts_edges_with_self_loops() {
        let parts = vec![(1, vec![1, 2]), (2, vec![1])];
        let g = UndirectedGraph::from_parts(parts);
        assert_eq!(g.edge_count(), 2, "loop 1-1 plus edge 1-2");
        assert_eq!(DirectedTopology::edge_count(&g), 3, "arcs");
        assert!(g.has_edge(1, 1));
        assert!(g.has_edge(2, 1));
    }

    #[test]
    fn from_sorted_parts_matches_from_parts() {
        // Same topology as `from_parts_counts_edges_with_self_loops`,
        // in slab form: node 1 (slot 0) -> [0, 1], node 2 (slot 1) -> [0].
        let g = UndirectedGraph::from_sorted_parts(vec![1, 2], &[0, 2, 3], Arc::from([0, 1, 0]));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2, "loop 1-1 plus edge 1-2");
        assert!(g.has_edge(1, 1));
        assert!(g.has_edge(2, 1));
        assert_eq!(g.nbrs(1), &[1, 2]);
        let empty = UndirectedGraph::from_sorted_parts(Vec::new(), &[0], Arc::from([]));
        assert!(empty.is_empty());
    }

    #[test]
    fn degree_and_missing_nodes() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        assert_eq!(g.degree(1), Some(1));
        assert_eq!(g.degree(99), None);
        assert!(g.nbrs(99).is_empty());
        assert!(!g.del_edge(5, 6));
        assert!(!g.del_node(99));
    }

    #[test]
    fn compact_preserves_adjacency_and_reclaims() {
        // Path 0-1-2-...-19 in slab form: node k (slot k) neighbors
        // {k-1, k+1}.
        let n = 20u32;
        let ids: Vec<NodeId> = (0..i64::from(n)).collect();
        let mut off = vec![0usize];
        let mut slab = Vec::new();
        for k in 0..n {
            if k > 0 {
                slab.push(k - 1);
            }
            if k + 1 < n {
                slab.push(k + 1);
            }
            off.push(slab.len());
        }
        let mut g = UndirectedGraph::from_sorted_parts(ids, &off, slab.into());
        for k in 0..8 {
            g.del_edge(k, k + 1);
        }
        assert!(g.adjacency_stats().dead_slab_bytes() > 0);
        let want: Vec<(NodeId, Vec<NodeId>)> =
            g.node_ids().map(|id| (id, g.nbrs(id).collect())).collect();
        let stats = g.compact();
        assert_eq!(stats.after.owned_lists, 0);
        assert_eq!(stats.after.dead_slab_bytes(), 0);
        assert!(stats.reclaimed_bytes() > 0);
        for (id, nbrs) in want {
            assert_eq!(g.nbrs(id), nbrs);
        }
        assert!(g.add_edge(0, 19));
    }

    #[test]
    fn i64_min_is_a_node_like_any_other() {
        let mut g = UndirectedGraph::new();
        assert!(g.add_node(i64::MIN));
        assert!(g.add_edge(i64::MIN, i64::MIN));
        assert!(g.add_edge(i64::MIN, 7));
        assert_eq!(g.nbrs(7), &[i64::MIN]);
        assert_eq!(g.edges().count(), 2);
        assert!(g.del_node(i64::MIN));
        assert_eq!((g.node_count(), g.edge_count()), (1, 0));
    }
}
