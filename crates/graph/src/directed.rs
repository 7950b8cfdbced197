//! The paper's dynamic directed graph: a node hash table with sorted
//! in/out adjacency vectors per node.

use crate::nbrs::{AdjacencyStats, CompactStats, NbrList};
use crate::topology::{Topology, TopologyCell};
use crate::traits::{DirectedTopology, Direction};
use crate::{slot_u32, NodeId, NodeValues};
use ringo_concurrent::IntHashTable;
use std::sync::Arc;

/// Per-node storage: the external id plus sorted neighbor lists
/// (copy-on-write [`NbrList`]s, so bulk-loaded nodes can share one
/// adjacency slab until first mutated).
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeCell {
    pub(crate) id: NodeId,
    pub(crate) in_nbrs: NbrList,
    pub(crate) out_nbrs: NbrList,
}

/// A dynamic directed graph (multi-edges disallowed, self-loops allowed).
///
/// Nodes live in a slot vector addressed through an open-addressing hash
/// index (id → slot). Each node keeps its in-neighbors and out-neighbors in
/// sorted vectors, so:
///
/// * `has_edge` is `O(log deg)`,
/// * `add_edge` / `del_edge` are `O(deg)` (vector insert/remove at a binary-
///   searched position) — the paper's headline contrast with CSR's `O(E)`,
/// * neighbor iteration is a contiguous scan,
/// * `clone` copies the node table and shares the id index and every
///   neighbor list until the copy edits them (one list per first edit,
///   the index only when a node is added or deleted).
///
/// ```
/// use ringo_graph::DirectedGraph;
///
/// let mut g = DirectedGraph::new();
/// g.add_edge(10, 20);
/// g.add_edge(10, 30);
/// g.add_edge(30, 10);
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.out_nbrs(10), &[20, 30]); // always sorted
/// assert_eq!(g.in_nbrs(10), &[30]);
///
/// g.del_edge(10, 20); // O(degree), not O(E)
/// assert!(!g.has_edge(10, 20));
/// assert!(g.in_nbrs(20).is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DirectedGraph {
    index: Arc<IntHashTable<u32>>,
    nodes: Vec<Option<NodeCell>>,
    free: Vec<u32>,
    n_nodes: usize,
    n_edges: usize,
    topology: TopologyCell,
}

impl DirectedGraph {
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

    /// Number of directed edges.
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

    /// True when the edge `src -> dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        match self.cell(src) {
            Some(c) => c.out_nbrs.binary_search(&dst).is_ok(),
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
        let cell = Some(NodeCell {
            id,
            ..NodeCell::default()
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

    /// Adds the edge `src -> dst`, creating missing endpoints. Returns
    /// `false` if the edge already existed.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let (s, _) = self.ensure_node(src);
        let (d, _) = self.ensure_node(dst);
        let sc = self.node_mut(s);
        match sc.out_nbrs.binary_search(&dst) {
            Ok(_) => return false,
            Err(pos) => sc.out_nbrs.to_mut().insert(pos, dst),
        }
        let dc = self.node_mut(d);
        let pos = dc
            .in_nbrs
            .binary_search(&src)
            .expect_err("in/out adjacency out of sync");
        dc.in_nbrs.to_mut().insert(pos, src);
        self.n_edges += 1;
        self.topology.mark(s, Direction::Out);
        self.topology.mark(d, Direction::In);
        true
    }

    /// Deletes the edge `src -> dst`. Returns `false` if it did not exist.
    /// Cost is `O(out_deg(src) + in_deg(dst))`, not `O(E)`.
    pub fn del_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let Some(&s) = self.index.get(src) else {
            return false;
        };
        let sc = self.node_mut(s);
        let Ok(pos) = sc.out_nbrs.binary_search(&dst) else {
            return false;
        };
        sc.out_nbrs.to_mut().remove(pos);
        let d = *self.index.get(dst).expect("edge endpoints must exist");
        let dc = self.node_mut(d);
        let pos = dc
            .in_nbrs
            .binary_search(&src)
            .expect("in/out adjacency out of sync");
        dc.in_nbrs.to_mut().remove(pos);
        self.n_edges -= 1;
        self.topology.mark(s, Direction::Out);
        self.topology.mark(d, Direction::In);
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
        // Remove `id` from the in-lists of its out-neighbors and from the
        // out-lists of its in-neighbors.
        for &nbr in cell.out_nbrs.iter() {
            if nbr == id {
                continue; // self-loop, cell already removed
            }
            let n = *self.index.get(nbr).expect("neighbor must exist");
            let nc = self.node_mut(n);
            let pos = nc.in_nbrs.binary_search(&id).expect("adjacency in sync");
            nc.in_nbrs.to_mut().remove(pos);
            self.topology.mark(n, Direction::In);
        }
        for &nbr in cell.in_nbrs.iter() {
            if nbr == id {
                continue;
            }
            let n = *self.index.get(nbr).expect("neighbor must exist");
            let nc = self.node_mut(n);
            let pos = nc.out_nbrs.binary_search(&id).expect("adjacency in sync");
            nc.out_nbrs.to_mut().remove(pos);
            self.topology.mark(n, Direction::Out);
        }
        let self_loop = cell.out_nbrs.binary_search(&id).is_ok();
        self.n_edges -= cell.out_nbrs.len() + cell.in_nbrs.len() - usize::from(self_loop);
        Arc::make_mut(&mut self.index).remove(id);
        self.free.push(slot);
        self.n_nodes -= 1;
        true
    }

    /// Out-degree of `id`, or `None` if the node is absent.
    pub fn out_degree(&self, id: NodeId) -> Option<usize> {
        self.cell(id).map(|c| c.out_nbrs.len())
    }

    /// In-degree of `id`, or `None` if the node is absent.
    pub fn in_degree(&self, id: NodeId) -> Option<usize> {
        self.cell(id).map(|c| c.in_nbrs.len())
    }

    /// Sorted out-neighbors of `id` (empty slice if absent).
    pub fn out_nbrs(&self, id: NodeId) -> &[NodeId] {
        self.cell(id).map_or(&[], |c| &c.out_nbrs)
    }

    /// Sorted in-neighbors of `id` (empty slice if absent).
    pub fn in_nbrs(&self, id: NodeId) -> &[NodeId] {
        self.cell(id).map_or(&[], |c| &c.in_nbrs)
    }

    /// Iterates over node ids in slot order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().flatten().map(|c| c.id)
    }

    /// Iterates over all directed edges as `(src, dst)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes
            .iter()
            .flatten()
            .flat_map(|c| c.out_nbrs.iter().map(move |d| (c.id, *d)))
    }

    /// Approximate heap footprint in bytes: hash index + slot vector +
    /// adjacency vector capacities. This is what the paper's Table 2
    /// reports as "In-memory Graph Size" — the graph alone; a cached
    /// [`Topology`] is reported by [`DirectedGraph::topology_bytes`].
    /// Versions share the index and every list neither has edited since
    /// the clone, and each version counts them in full:
    /// [`AdjacencyStats::shared_bytes`] says how much of this is shared.
    pub fn mem_size(&self) -> usize {
        let mut bytes = self.index.mem_size();
        bytes += self.nodes.capacity() * std::mem::size_of::<Option<NodeCell>>();
        bytes += self.free.capacity() * std::mem::size_of::<u32>();
        for c in self.nodes.iter().flatten() {
            bytes += c.in_nbrs.heap_bytes() + c.out_nbrs.heap_bytes();
        }
        bytes
    }

    /// Heap bytes of the cached [`Topology`], 0 when none is cached. A view
    /// that mutations have left stale is still held memory and is counted.
    pub fn topology_bytes(&self) -> usize {
        self.topology.bytes()
    }

    /// Drops the cached [`Topology`] (the next
    /// [`DirectedTopology::topology`] call rebuilds it). The catalog calls
    /// this on a version a publish displaces, so only the current version
    /// of a name holds one.
    pub fn release_topology(&self) {
        self.topology.release();
    }

    /// Builds a graph from per-node parts `(id, in_nbrs, out_nbrs)` whose
    /// adjacency vectors are **already sorted and deduplicated** and
    /// mutually consistent. Used by the bulk "sort-first" converter, which
    /// produces the parts in parallel.
    ///
    /// # Panics
    /// In debug builds, panics if a vector is unsorted.
    pub fn from_parts(parts: Vec<(NodeId, Vec<NodeId>, Vec<NodeId>)>) -> Self {
        let mut g = Self::with_capacity(parts.len());
        let index = Arc::get_mut(&mut g.index).expect("fresh index is unshared");
        let mut n_edges = 0usize;
        for (id, in_nbrs, out_nbrs) in parts {
            debug_assert!(in_nbrs.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(out_nbrs.windows(2).all(|w| w[0] < w[1]));
            n_edges += out_nbrs.len();
            let slot = slot_u32(g.nodes.len());
            g.nodes.push(Some(NodeCell {
                id,
                in_nbrs: in_nbrs.into(),
                out_nbrs: out_nbrs.into(),
            }));
            let prev = index.insert(id, slot);
            assert!(prev.is_none(), "duplicate node id {id} in parts");
        }
        g.n_nodes = g.nodes.len();
        g.n_edges = n_edges;
        g
    }

    /// Bulk-builds a graph from slab-form adjacency (the conversion fill
    /// phase, induced subgraphs): node `k` (with id `ids[k]`, distinct,
    /// placed in slot `k`) owns `in_slab[in_off[k]..in_off[k+1]]` and
    /// `out_slab[out_off[k]..out_off[k+1]]`, each **sorted and
    /// deduplicated**, and the two orientations must be mutually
    /// consistent.
    ///
    /// Unlike row-at-a-time construction this reserves the node hash
    /// table once (no grow/rehash cycles: `with_capacity` sizes it below
    /// the load-factor limit) and installs each adjacency list as a
    /// copy-on-write **view into the shared slab** — no per-node
    /// allocation or copy at all; a node's list is only materialized as
    /// a private `Vec` if that node is later mutated. The graph takes
    /// ownership of the slabs the producer filled in place (see
    /// [`crate::new_slab`]), so the adjacency is never copied.
    ///
    /// # Panics
    /// Panics on duplicate ids; debug builds also check that slabs are
    /// fully covered and runs are sorted.
    pub fn from_sorted_parts(
        ids: Vec<NodeId>,
        in_off: &[usize],
        in_slab: Arc<[NodeId]>,
        out_off: &[usize],
        out_slab: Arc<[NodeId]>,
    ) -> Self {
        let n = ids.len();
        assert_eq!(
            in_off.len(),
            n + 1,
            "in_off must have one bound per node plus one"
        );
        assert_eq!(
            out_off.len(),
            n + 1,
            "out_off must have one bound per node plus one"
        );
        debug_assert_eq!(*in_off.last().unwrap_or(&0), in_slab.len());
        debug_assert_eq!(*out_off.last().unwrap_or(&0), out_slab.len());
        let mut g = Self::with_capacity(n);
        let index = Arc::get_mut(&mut g.index).expect("fresh index is unshared");
        let n_edges = out_slab.len();
        for (k, id) in ids.into_iter().enumerate() {
            debug_assert!(in_slab[in_off[k]..in_off[k + 1]]
                .windows(2)
                .all(|w| w[0] < w[1]));
            debug_assert!(out_slab[out_off[k]..out_off[k + 1]]
                .windows(2)
                .all(|w| w[0] < w[1]));
            g.nodes.push(Some(NodeCell {
                id,
                in_nbrs: NbrList::slab(&in_slab, in_off[k], in_off[k + 1]),
                out_nbrs: NbrList::slab(&out_slab, out_off[k], out_off[k + 1]),
            }));
            let prev = index.insert(id, slot_u32(k));
            assert!(prev.is_none(), "duplicate node id {id} in sorted parts");
        }
        g.n_nodes = n;
        g.n_edges = n_edges;
        g
    }

    /// Adjacency-storage accounting: slab vs owned lists, live vs dead
    /// slab bytes. [`AdjacencyStats::dead_slab_bytes`] is the retention
    /// that mutations leak and [`DirectedGraph::compact`] reclaims.
    pub fn adjacency_stats(&self) -> AdjacencyStats {
        let mut stats = AdjacencyStats::default();
        let mut slabs = std::collections::HashMap::new();
        for c in self.nodes.iter().flatten() {
            c.in_nbrs.accumulate(&mut stats, &mut slabs);
            c.out_nbrs.accumulate(&mut stats, &mut slabs);
        }
        stats.finish(&slabs)
    }

    /// Rewrites every adjacency list into two fresh, exactly-sized
    /// shared slabs (one per direction), releasing dead slab ranges left
    /// behind by mutations and collapsing per-node owned vectors back
    /// into bulk storage. Adjacency is unchanged — so a cached
    /// [`Topology`] stays as it is — and the graph stays fully dynamic
    /// afterwards.
    ///
    /// Rewriting the adjacency into a new immutable slab is exactly what
    /// a copy-on-write version publish does, so the core crate's
    /// `Catalog` runs this as one: clone (the node table only — lists and
    /// index are shared), compact the clone, publish it as the next
    /// version, and let the epoch machinery retire the old slabs once
    /// unpinned.
    pub fn compact(&mut self) -> CompactStats {
        let before = self.adjacency_stats();
        let mut ins: Vec<&mut NbrList> = self
            .nodes
            .iter_mut()
            .flatten()
            .map(|c| &mut c.in_nbrs)
            .collect();
        NbrList::compact(&mut ins);
        let mut outs: Vec<&mut NbrList> = self
            .nodes
            .iter_mut()
            .flatten()
            .map(|c| &mut c.out_nbrs)
            .collect();
        NbrList::compact(&mut outs);
        CompactStats {
            before,
            after: self.adjacency_stats(),
        }
    }

    /// Collapses edge direction, returning the undirected version of this
    /// graph (self-loops preserved, reciprocal edges merged).
    pub fn to_undirected(&self) -> crate::UndirectedGraph {
        let mut parts = Vec::with_capacity(self.nodes.len());
        for c in self.nodes.iter().flatten() {
            let mut nbrs = Vec::with_capacity(c.in_nbrs.len() + c.out_nbrs.len());
            // Merge two sorted vectors, deduplicating.
            let (a, b) = (&c.in_nbrs, &c.out_nbrs);
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                let v = match (a.get(i), b.get(j)) {
                    (Some(x), Some(y)) if x == y => {
                        i += 1;
                        j += 1;
                        *x
                    }
                    (Some(x), Some(y)) if x < y => {
                        i += 1;
                        *x
                    }
                    (Some(_), Some(y)) => {
                        j += 1;
                        *y
                    }
                    (Some(x), None) => {
                        i += 1;
                        *x
                    }
                    (None, Some(y)) => {
                        j += 1;
                        *y
                    }
                    (None, None) => unreachable!(),
                };
                nbrs.push(v);
            }
            parts.push((c.id, nbrs));
        }
        crate::UndirectedGraph::from_parts(parts)
    }

    #[inline]
    fn cell(&self, id: NodeId) -> Option<&NodeCell> {
        let slot = *self.index.get(id)?;
        self.nodes[slot as usize].as_ref()
    }

    /// The node in `slot`, which the index just named.
    #[inline]
    fn node_mut(&mut self, slot: u32) -> &mut NodeCell {
        self.nodes[slot as usize]
            .as_mut()
            .expect("indexed slot occupied")
    }
}

impl DirectedTopology for DirectedGraph {
    fn n_slots(&self) -> usize {
        self.nodes.len()
    }

    fn slot_id(&self, slot: usize) -> Option<NodeId> {
        self.nodes[slot].as_ref().map(|c| c.id)
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        let slot = *self.index.get(id)?;
        Some(slot as usize)
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

    fn topology(&self) -> Arc<Topology> {
        self.topology.get(self, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = DirectedGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert!(!g.has_node(1));
        assert!(!g.has_edge(1, 2));
        assert!(g.out_nbrs(1).is_empty());
    }

    #[test]
    fn add_edge_creates_endpoints() {
        let mut g = DirectedGraph::new();
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(1, 2), "duplicate edge rejected");
        assert!(g.add_edge(2, 1), "reverse edge is distinct");
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 1));
        assert_eq!(g.out_nbrs(1), &[2]);
        assert_eq!(g.in_nbrs(1), &[2]);
    }

    #[test]
    fn adjacency_stays_sorted() {
        let mut g = DirectedGraph::new();
        for dst in [5, 1, 9, 3, 7] {
            g.add_edge(0, dst);
        }
        assert_eq!(g.out_nbrs(0), &[1, 3, 5, 7, 9]);
        assert_eq!(g.out_degree(0), Some(5));
        assert_eq!(g.in_degree(0), Some(0));
    }

    #[test]
    fn del_edge_maintains_both_sides() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        assert!(g.del_edge(1, 2));
        assert!(!g.del_edge(1, 2));
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(1, 2));
        assert!(g.in_nbrs(2).is_empty());
        assert_eq!(g.out_nbrs(1), &[3]);
    }

    #[test]
    fn self_loop_roundtrip() {
        let mut g = DirectedGraph::new();
        assert!(g.add_edge(4, 4));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_nbrs(4), &[4]);
        assert_eq!(g.in_nbrs(4), &[4]);
        assert!(g.del_edge(4, 4));
        assert_eq!(g.edge_count(), 0);
        assert!(g.has_node(4));
    }

    #[test]
    fn del_node_removes_incident_edges() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 1);
        g.add_edge(2, 2);
        assert!(g.del_node(2));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(3, 1));
        assert!(g.out_nbrs(1).is_empty());
        assert!(g.in_nbrs(3).is_empty());
        assert!(!g.del_node(2));
    }

    #[test]
    fn slot_reuse_after_del_node() {
        let mut g = DirectedGraph::new();
        g.add_node(1);
        g.add_node(2);
        g.del_node(1);
        g.add_node(3);
        assert_eq!(g.n_slots(), 2, "freed slot is recycled");
        let ids: Vec<_> = g.node_ids().collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&2) && ids.contains(&3));
    }

    #[test]
    fn edges_iterator_covers_all() {
        let mut g = DirectedGraph::new();
        let edges = [(1, 2), (1, 3), (2, 3), (3, 1)];
        for (s, d) in edges {
            g.add_edge(s, d);
        }
        let mut got: Vec<_> = g.edges().collect();
        got.sort_unstable();
        assert_eq!(got, edges.to_vec());
    }

    #[test]
    fn from_parts_matches_incremental() {
        let parts = vec![
            (1, vec![3], vec![2, 3]),
            (2, vec![1], vec![3]),
            (3, vec![1, 2], vec![1]),
        ];
        let g = DirectedGraph::from_parts(parts);
        let mut inc = DirectedGraph::new();
        for (s, d) in [(1, 2), (1, 3), (2, 3), (3, 1)] {
            inc.add_edge(s, d);
        }
        assert_eq!(g.node_count(), inc.node_count());
        assert_eq!(g.edge_count(), inc.edge_count());
        for id in [1i64, 2, 3] {
            assert_eq!(g.out_nbrs(id), inc.out_nbrs(id));
            assert_eq!(g.in_nbrs(id), inc.in_nbrs(id));
        }
    }

    #[test]
    fn from_sorted_parts_matches_incremental() {
        // Edges (1,2) (1,3) (2,3) (3,1) in slab form.
        let ids = vec![1i64, 2, 3];
        let out_off = [0usize, 2, 3, 4];
        let out_slab = [2i64, 3, 3, 1];
        let in_off = [0usize, 1, 2, 4];
        let in_slab = [3i64, 1, 1, 2];
        let g = DirectedGraph::from_sorted_parts(
            ids,
            &in_off,
            Arc::from(in_slab),
            &out_off,
            Arc::from(out_slab),
        );
        let mut inc = DirectedGraph::new();
        for (s, d) in [(1, 2), (1, 3), (2, 3), (3, 1)] {
            inc.add_edge(s, d);
        }
        assert_eq!(g.node_count(), inc.node_count());
        assert_eq!(g.edge_count(), inc.edge_count());
        for id in [1i64, 2, 3] {
            assert_eq!(g.out_nbrs(id), inc.out_nbrs(id));
            assert_eq!(g.in_nbrs(id), inc.in_nbrs(id));
        }
        // The bulk graph stays fully dynamic afterwards.
        let mut g = g;
        assert!(g.add_edge(2, 1));
        assert!(g.del_edge(1, 3));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn from_sorted_parts_empty() {
        let g =
            DirectedGraph::from_sorted_parts(Vec::new(), &[0], Arc::from([]), &[0], Arc::from([]));
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn to_undirected_merges_reciprocal_edges() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        g.add_edge(2, 3);
        g.add_edge(5, 5);
        let u = g.to_undirected();
        assert_eq!(u.node_count(), 4);
        assert_eq!(u.edge_count(), 3, "1-2 merged, 2-3, 5-5");
        assert_eq!(u.nbrs(2), &[1, 3]);
        assert_eq!(u.nbrs(5), &[5]);
    }

    #[test]
    fn mem_size_grows_with_edges() {
        let mut g = DirectedGraph::new();
        let empty = g.mem_size();
        for i in 0..1000 {
            g.add_edge(i, i + 1);
        }
        assert!(g.mem_size() > empty + 1000 * 16 / 2);
    }

    #[test]
    fn negative_and_large_ids() {
        let mut g = DirectedGraph::new();
        g.add_edge(-10, i64::MAX);
        assert!(g.has_edge(-10, i64::MAX));
        assert_eq!(g.out_nbrs(-10), &[i64::MAX]);
    }

    /// A bulk-loaded chain graph with ids 0..n (so every endpoint is a
    /// distinct node and the slab layout is easy to reason about).
    fn chain_graph(n: usize) -> DirectedGraph {
        let ids: Vec<NodeId> = (0..n as NodeId).collect();
        let mut out_off = vec![0usize];
        let mut out_slab = Vec::new();
        let mut in_off = vec![0usize];
        let mut in_slab = Vec::new();
        for k in 0..n {
            if k + 1 < n {
                out_slab.push((k + 1) as NodeId);
            }
            out_off.push(out_slab.len());
            if k > 0 {
                in_slab.push((k - 1) as NodeId);
            }
            in_off.push(in_slab.len());
        }
        DirectedGraph::from_sorted_parts(ids, &in_off, in_slab.into(), &out_off, out_slab.into())
    }

    #[test]
    fn compact_reclaims_dead_slab_ranges() {
        let mut g = chain_graph(100);
        let fresh = g.adjacency_stats();
        assert_eq!(fresh.owned_lists, 0, "bulk load is all views");
        assert_eq!(fresh.dead_slab_bytes(), 0);
        // Mutations materialize some lists; their old ranges go dead but
        // the slab stays fully retained.
        for id in 0..40 {
            g.del_edge(id, id + 1);
        }
        let dirty = g.adjacency_stats();
        assert!(dirty.owned_lists > 0);
        assert!(dirty.dead_slab_bytes() > 0, "mutations leak dead ranges");
        let want: Vec<(NodeId, Vec<NodeId>, Vec<NodeId>)> = g
            .node_ids()
            .map(|id| (id, g.in_nbrs(id).to_vec(), g.out_nbrs(id).to_vec()))
            .collect();
        let stats = g.compact();
        assert_eq!(stats.after.owned_lists, 0, "everything rebound as views");
        assert_eq!(stats.after.dead_slab_bytes(), 0);
        assert!(stats.reclaimed_bytes() > 0);
        assert!(stats.after.footprint_bytes() < stats.before.footprint_bytes());
        for (id, ins, outs) in want {
            assert_eq!(g.in_nbrs(id), &ins[..], "in-adjacency preserved");
            assert_eq!(g.out_nbrs(id), &outs[..], "out-adjacency preserved");
        }
        // Still fully dynamic afterwards.
        assert!(g.add_edge(0, 99));
        assert!(g.del_edge(50, 51));
    }

    #[test]
    fn compact_is_idempotent_and_handles_empty() {
        let mut empty = DirectedGraph::new();
        let stats = empty.compact();
        assert_eq!(stats.reclaimed_bytes(), 0);
        let mut g = chain_graph(10);
        g.del_edge(3, 4);
        g.compact();
        let again = g.compact();
        assert_eq!(
            again.reclaimed_bytes(),
            0,
            "second compact finds nothing to reclaim"
        );
        assert_eq!(g.edge_count(), 8);
    }
}
