//! Dynamic undirected graph: node hash table with one sorted neighbor
//! vector per node.

use crate::nbrs::{AdjacencyStats, CompactStats, NbrList};
use crate::topology::{Topology, TopologyCell};
use crate::traits::Direction;
use crate::{slot_u32, NodeId, NodeValues};
use ringo_concurrent::IntHashTable;
use std::sync::Arc;

#[derive(Clone, Debug, Default)]
struct UNodeCell {
    id: NodeId,
    nbrs: NbrList,
}

/// A dynamic undirected graph (no multi-edges; self-loops allowed and
/// stored once).
///
/// Mirrors [`crate::DirectedGraph`] with a single sorted adjacency vector
/// per node. Each undirected edge `{a, b}` appears in both endpoints'
/// vectors (a self-loop appears once, in its own node's vector).
#[derive(Clone, Debug, Default)]
pub struct UndirectedGraph {
    index: Arc<IntHashTable<u32>>,
    nodes: Vec<Option<UNodeCell>>,
    free: Vec<u32>,
    n_nodes: usize,
    n_edges: usize,
    topology: TopologyCell,
}

impl UndirectedGraph {
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

    /// Number of undirected edges (each counted once).
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n_nodes == 0
    }

    /// True when `id` is a node of the graph.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.index.contains(id)
    }

    /// True when the undirected edge `{a, b}` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        match self.cell(a) {
            Some(c) => c.nbrs.binary_search(&b).is_ok(),
            None => false,
        }
    }

    /// Adds node `id`. Returns `false` if it already existed.
    pub fn add_node(&mut self, id: NodeId) -> bool {
        self.ensure_node(id).1
    }

    /// The slot of node `id`, and whether it had to be added first.
    fn ensure_node(&mut self, id: NodeId) -> (u32, bool) {
        if let Some(&slot) = self.index.get(id) {
            return (slot, false);
        }
        let cell = Some(UNodeCell {
            id,
            nbrs: NbrList::default(),
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = cell;
                slot
            }
            None => {
                let slot = slot_u32(self.nodes.len());
                self.nodes.push(cell);
                slot
            }
        };
        Arc::make_mut(&mut self.index).insert(id, slot);
        self.n_nodes += 1;
        self.topology.mark(slot, Direction::Both);
        (slot, true)
    }

    /// Adds the undirected edge `{a, b}`, creating missing endpoints.
    /// Returns `false` if the edge already existed.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let (sa, _) = self.ensure_node(a);
        let (sb, _) = self.ensure_node(b);
        let ca = self.node_mut(sa);
        match ca.nbrs.binary_search(&b) {
            Ok(_) => return false,
            Err(pos) => ca.nbrs.to_mut().insert(pos, b),
        }
        if a != b {
            let cb = self.node_mut(sb);
            let pos = cb
                .nbrs
                .binary_search(&a)
                .expect_err("adjacency out of sync");
            cb.nbrs.to_mut().insert(pos, a);
        }
        self.n_edges += 1;
        self.topology.mark(sa, Direction::Both);
        self.topology.mark(sb, Direction::Both);
        true
    }

    /// Deletes the undirected edge `{a, b}`. Returns `false` if absent.
    pub fn del_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let Some(&sa) = self.index.get(a) else {
            return false;
        };
        let ca = self.node_mut(sa);
        let Ok(pos) = ca.nbrs.binary_search(&b) else {
            return false;
        };
        ca.nbrs.to_mut().remove(pos);
        let sb = *self.index.get(b).expect("edge endpoints exist");
        if a != b {
            let cb = self.node_mut(sb);
            let pos = cb.nbrs.binary_search(&a).expect("adjacency in sync");
            cb.nbrs.to_mut().remove(pos);
        }
        self.n_edges -= 1;
        self.topology.mark(sa, Direction::Both);
        self.topology.mark(sb, Direction::Both);
        true
    }

    /// Deletes node `id` and all incident edges. Returns `false` if absent.
    pub fn del_node(&mut self, id: NodeId) -> bool {
        let slot = match self.index.get(id) {
            Some(s) => *s,
            None => return false,
        };
        let cell = self.nodes[slot as usize]
            .take()
            .expect("indexed slot occupied");
        self.topology.mark(slot, Direction::Both);
        for &nbr in cell.nbrs.iter() {
            if nbr == id {
                continue;
            }
            let n = *self.index.get(nbr).expect("neighbor exists");
            let nc = self.node_mut(n);
            let pos = nc.nbrs.binary_search(&id).expect("adjacency in sync");
            nc.nbrs.to_mut().remove(pos);
            self.topology.mark(n, Direction::Both);
        }
        self.n_edges -= cell.nbrs.len();
        Arc::make_mut(&mut self.index).remove(id);
        self.free.push(slot);
        self.n_nodes -= 1;
        true
    }

    /// Degree of `id` (self-loop counts once), or `None` if absent.
    pub fn degree(&self, id: NodeId) -> Option<usize> {
        self.cell(id).map(|c| c.nbrs.len())
    }

    /// Sorted neighbors of `id` (empty slice if absent).
    pub fn nbrs(&self, id: NodeId) -> &[NodeId] {
        self.cell(id).map_or(&[], |c| &c.nbrs)
    }

    /// Iterates over node ids in slot order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().flatten().map(|c| c.id)
    }

    /// Iterates over undirected edges once each, as `(a, b)` with `a <= b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.iter().flatten().flat_map(|c| {
            c.nbrs
                .iter()
                .filter(move |n| **n >= c.id)
                .map(move |n| (c.id, *n))
        })
    }

    /// Upper bound (exclusive) on slot handles; see [`Self::slot_id`].
    pub fn n_slots(&self) -> usize {
        self.nodes.len()
    }

    /// External id in `slot`, or `None` for vacant slots.
    pub fn slot_id(&self, slot: usize) -> Option<NodeId> {
        self.nodes[slot].as_ref().map(|c| c.id)
    }

    /// Slot holding node `id`.
    pub fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.index.get(id).map(|s| *s as usize)
    }

    /// Sorted neighbors of the node in `slot` (empty for vacant slots).
    pub fn nbrs_of_slot(&self, slot: usize) -> &[NodeId] {
        self.nodes[slot].as_ref().map_or(&[], |c| &c.nbrs)
    }

    /// Approximate heap footprint in bytes (see
    /// [`crate::DirectedGraph::mem_size`]).
    pub fn mem_size(&self) -> usize {
        let mut bytes = self.index.mem_size();
        bytes += self.nodes.capacity() * std::mem::size_of::<Option<UNodeCell>>();
        bytes += self.free.capacity() * std::mem::size_of::<u32>();
        for c in self.nodes.iter().flatten() {
            bytes += c.nbrs.heap_bytes();
        }
        bytes
    }

    /// Heap bytes of the cached [`Topology`], stale or not; 0 when none is
    /// cached.
    pub fn topology_bytes(&self) -> usize {
        self.topology.bytes()
    }

    /// Drops the cached [`Topology`] (see
    /// [`crate::DirectedGraph::release_topology`]).
    pub fn release_topology(&self) {
        self.topology.release();
    }

    /// Adjacency-storage accounting (see
    /// [`crate::DirectedGraph::adjacency_stats`]).
    pub fn adjacency_stats(&self) -> AdjacencyStats {
        let mut stats = AdjacencyStats::default();
        let mut slabs = std::collections::HashMap::new();
        for c in self.nodes.iter().flatten() {
            c.nbrs.accumulate(&mut stats, &mut slabs);
        }
        stats.finish(&slabs)
    }

    /// Rewrites every adjacency list into one fresh, exactly-sized
    /// shared slab (see [`crate::DirectedGraph::compact`]).
    pub fn compact(&mut self) -> CompactStats {
        let before = self.adjacency_stats();
        let mut lists: Vec<&mut NbrList> = self
            .nodes
            .iter_mut()
            .flatten()
            .map(|c| &mut c.nbrs)
            .collect();
        NbrList::compact(&mut lists);
        CompactStats {
            before,
            after: self.adjacency_stats(),
        }
    }

    /// Builds a graph from `(id, sorted deduplicated neighbors)` parts that
    /// are mutually consistent. Bulk-loading counterpart of
    /// [`crate::DirectedGraph::from_parts`].
    pub fn from_parts(parts: Vec<(NodeId, Vec<NodeId>)>) -> Self {
        let mut g = Self::with_capacity(parts.len());
        let index = Arc::get_mut(&mut g.index).expect("fresh index is unshared");
        let mut edge_ends = 0usize;
        let mut self_loops = 0usize;
        for (id, nbrs) in parts {
            debug_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            edge_ends += nbrs.len();
            self_loops += usize::from(nbrs.binary_search(&id).is_ok());
            let slot = slot_u32(g.nodes.len());
            g.nodes.push(Some(UNodeCell {
                id,
                nbrs: nbrs.into(),
            }));
            let prev = index.insert(id, slot);
            assert!(prev.is_none(), "duplicate node id {id} in parts");
        }
        g.n_nodes = g.nodes.len();
        g.n_edges = (edge_ends - self_loops) / 2 + self_loops;
        g
    }

    /// Bulk-builds a graph from slab-form adjacency: node `k` (id
    /// `ids[k]`, distinct, placed in slot `k`) owns
    /// `slab[off[k]..off[k+1]]`, sorted and deduplicated, with each edge
    /// `{a, b}` present in both endpoints' runs (self-loops once).
    /// Undirected counterpart of
    /// [`crate::DirectedGraph::from_sorted_parts`]: one hash-table
    /// reservation, each adjacency list installed as a copy-on-write
    /// view into the slab, and the slab itself taken over, not copied.
    ///
    /// # Panics
    /// Panics on duplicate ids; debug builds also check sortedness.
    pub fn from_sorted_parts(ids: Vec<NodeId>, off: &[usize], slab: Arc<[NodeId]>) -> Self {
        let n = ids.len();
        assert_eq!(
            off.len(),
            n + 1,
            "off must have one bound per node plus one"
        );
        debug_assert_eq!(*off.last().unwrap_or(&0), slab.len());
        let mut g = Self::with_capacity(n);
        let index = Arc::get_mut(&mut g.index).expect("fresh index is unshared");
        let mut edge_ends = 0usize;
        let mut self_loops = 0usize;
        for (k, id) in ids.into_iter().enumerate() {
            let nbrs = &slab[off[k]..off[k + 1]];
            debug_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            edge_ends += nbrs.len();
            self_loops += usize::from(nbrs.binary_search(&id).is_ok());
            g.nodes.push(Some(UNodeCell {
                id,
                nbrs: NbrList::slab(&slab, off[k], off[k + 1]),
            }));
            let prev = index.insert(id, slot_u32(k));
            assert!(prev.is_none(), "duplicate node id {id} in sorted parts");
        }
        g.n_nodes = n;
        g.n_edges = (edge_ends - self_loops) / 2 + self_loops;
        g
    }

    #[inline]
    fn cell(&self, id: NodeId) -> Option<&UNodeCell> {
        let slot = *self.index.get(id)?;
        self.nodes[slot as usize].as_ref()
    }

    /// The node in `slot`, which the index just named.
    #[inline]
    fn node_mut(&mut self, slot: u32) -> &mut UNodeCell {
        self.nodes[slot as usize]
            .as_mut()
            .expect("indexed slot occupied")
    }
}

/// Undirected adjacency viewed as a symmetric directed topology: out- and
/// in-neighbors are the same sorted list, so every `DirectedTopology`
/// algorithm (BFS, the frontier engine, reachability) runs unchanged with
/// `Direction::Out`. `edge_count` reports directed arcs — `2m` minus one
/// per self-loop — keeping degree sums and edge counts consistent.
impl crate::DirectedTopology for UndirectedGraph {
    fn n_slots(&self) -> usize {
        self.nodes.len()
    }

    fn slot_id(&self, slot: usize) -> Option<NodeId> {
        UndirectedGraph::slot_id(self, slot)
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        UndirectedGraph::slot_of(self, id)
    }

    fn out_nbrs_of_slot(&self, slot: usize) -> &[NodeId] {
        self.nbrs_of_slot(slot)
    }

    fn in_nbrs_of_slot(&self, slot: usize) -> &[NodeId] {
        self.nbrs_of_slot(slot)
    }

    fn node_count(&self) -> usize {
        self.n_nodes
    }

    fn edge_count(&self) -> usize {
        let self_loops: usize = self
            .nodes
            .iter()
            .flatten()
            .filter(|c| c.nbrs.binary_search(&c.id).is_ok())
            .count();
        2 * self.n_edges - self_loops
    }

    fn node_values<T>(
        &self,
        per_slot: Vec<T>,
        count: usize,
        keep: impl Fn(&T) -> bool,
    ) -> NodeValues<T> {
        NodeValues::pack(&self.index, self, per_slot, count, keep)
    }

    fn topology(&self) -> Arc<Topology> {
        self.topology.get(self, true)
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
        assert!(g.del_edge(3, 3));
        assert_eq!(g.edge_count(), 0);
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
        assert!(g.has_edge(1, 1));
        assert!(g.has_edge(2, 1));
    }

    #[test]
    fn from_sorted_parts_matches_from_parts() {
        // Same topology as `from_parts_counts_edges_with_self_loops`,
        // in slab form: node 1 -> [1, 2], node 2 -> [1].
        let g = UndirectedGraph::from_sorted_parts(vec![1, 2], &[0, 2, 3], Arc::from([1, 2, 1]));
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
        // Path 0-1-2-...-19 in slab form: node k neighbors {k-1, k+1}.
        let n = 20i64;
        let ids: Vec<NodeId> = (0..n).collect();
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
            g.node_ids().map(|id| (id, g.nbrs(id).to_vec())).collect();
        let stats = g.compact();
        assert_eq!(stats.after.owned_lists, 0);
        assert_eq!(stats.after.dead_slab_bytes(), 0);
        assert!(stats.reclaimed_bytes() > 0);
        for (id, nbrs) in want {
            assert_eq!(g.nbrs(id), &nbrs[..]);
        }
        assert!(g.add_edge(0, 19));
    }
}
