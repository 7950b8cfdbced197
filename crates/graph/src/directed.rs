//! The paper's dynamic directed graph: a node hash table with sorted
//! in/out adjacency vectors per node.

use crate::nbrs::{AdjacencyStats, CompactStats, Nodes, Rows};
use crate::topology::DirectedTopology;
use crate::{NodeId, NodeValues};
use std::sync::Arc;

/// A dynamic directed graph (multi-edges disallowed, self-loops allowed).
///
/// Nodes live in slots addressed through an open-addressing hash index
/// (id → slot). Each node keeps its in-neighbours and out-neighbours as
/// rows of neighbour *slots* (4 bytes a neighbour), sorted by slot, so:
///
/// * `has_edge` is `O(log deg)`,
/// * `add_edge` / `del_edge` are `O(deg)` (vector insert/remove at a binary-
///   searched position) — the paper's headline contrast with CSR's `O(E)`,
/// * a kernel walks a row in place as slots ([`DirectedTopology`]); the id
///   accessors ([`Self::out_nbrs`], [`Self::in_nbrs`]) map each slot to its
///   id through the node side,
/// * `clone` allocates nothing: the copy shares the id index, the node
///   side, both orientations' slabs and offsets and every edited list
///   until it writes them (the node side only when a node is added or
///   deleted; an orientation's overlay, 8 bytes a slot, on the copy's
///   first edit of it; a list on the copy's first edit of that list).
///
/// A bulk-built slot costs 16 bytes beside the index — its id and one
/// 4-byte offset per orientation into the shared slabs.
///
/// Slot order is id order on a graph built in bulk from ascending ids
/// (conversions, `induced`, the loaders). A node added later takes the
/// next free slot, so its neighbours list it in slot order, not id order.
///
/// ```
/// use ringo_graph::DirectedGraph;
///
/// let mut g = DirectedGraph::new();
/// g.add_edge(10, 20);
/// g.add_edge(10, 30);
/// g.add_edge(30, 10);
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.out_nbrs(10), &[20, 30]); // slot order: here, id order
/// assert_eq!(g.in_nbrs(10), &[30]);
///
/// g.del_edge(10, 20); // O(degree), not O(E)
/// assert!(!g.has_edge(10, 20));
/// assert!(g.in_nbrs(20).is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DirectedGraph {
    nodes: Nodes,
    /// Out-neighbour slots; empty for a vacant slot.
    out: Rows,
    /// In-neighbour slots, as `out`.
    inn: Rows,
    n_edges: usize,
}

impl DirectedGraph {
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

    /// Number of directed edges.
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

    /// True when the edge `src -> dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        match (self.nodes.slot(src), self.nodes.slot(dst)) {
            (Some(s), Some(d)) => self.out.row(s as usize).binary_search(&d).is_ok(),
            _ => false,
        }
    }

    /// Adds node `id`. Returns `false` if it already existed.
    pub fn add_node(&mut self, id: NodeId) -> bool {
        self.nodes.ensure(id).1
    }

    /// Adds the edge `src -> dst`, creating missing endpoints. Returns
    /// `false` if the edge already existed.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let (s, _) = self.nodes.ensure(src);
        let (d, _) = self.nodes.ensure(dst);
        let n = self.nodes.n_slots();
        let Err(pos) = self.out.row(s as usize).binary_search(&d) else {
            return false;
        };
        self.out.to_mut(s as usize, n).insert(pos, d);
        let inn = self.inn.row(d as usize);
        let pos = inn
            .binary_search(&s)
            .expect_err("in/out adjacency out of sync");
        self.inn.to_mut(d as usize, n).insert(pos, s);
        self.n_edges += 1;
        true
    }

    /// Deletes the edge `src -> dst`. Returns `false` if it did not exist.
    /// Cost is `O(out_deg(src) + in_deg(dst))`, not `O(E)`.
    pub fn del_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let (Some(s), Some(d)) = (self.nodes.slot(src), self.nodes.slot(dst)) else {
            return false;
        };
        let n = self.nodes.n_slots();
        let Ok(pos) = self.out.row(s as usize).binary_search(&d) else {
            return false;
        };
        self.out.to_mut(s as usize, n).remove(pos);
        let inn = self.inn.row(d as usize);
        let pos = inn.binary_search(&s).expect("in/out adjacency out of sync");
        self.inn.to_mut(d as usize, n).remove(pos);
        self.n_edges -= 1;
        true
    }

    /// Deletes node `id` and all incident edges. Returns `false` if absent.
    pub fn del_node(&mut self, id: NodeId) -> bool {
        let Some(slot) = self.nodes.release(id) else {
            return false;
        };
        let (s, n) = (slot as usize, self.nodes.n_slots());
        let out = std::mem::take(self.out.to_mut(s, n));
        let inn = std::mem::take(self.inn.to_mut(s, n));
        // Remove `slot` from the in-rows of its out-neighbours and from the
        // out-rows of its in-neighbours.
        for (rows, nbrs) in [(&mut self.inn, &out), (&mut self.out, &inn)] {
            for &v in nbrs.iter().filter(|&&v| v != slot) {
                let row = rows.to_mut(v as usize, n);
                let pos = row.binary_search(&slot).expect("adjacency in sync");
                row.remove(pos);
            }
        }
        let self_loop = out.binary_search(&slot).is_ok();
        self.n_edges -= out.len() + inn.len() - usize::from(self_loop);
        true
    }

    /// Out-degree of `id`, or `None` if the node is absent.
    pub fn out_degree(&self, id: NodeId) -> Option<usize> {
        self.nodes.slot(id).map(|s| self.out.row(s as usize).len())
    }

    /// In-degree of `id`, or `None` if the node is absent.
    pub fn in_degree(&self, id: NodeId) -> Option<usize> {
        self.nodes.slot(id).map(|s| self.inn.row(s as usize).len())
    }

    /// Out-neighbors of `id` in slot order (empty if absent) — id order
    /// unless nodes were added after a bulk build (see the type docs).
    pub fn out_nbrs(&self, id: NodeId) -> Nbrs<'_> {
        let row = self
            .nodes
            .slot(id)
            .map_or(&[][..], |s| self.out.row(s as usize));
        Nbrs::new(row, self)
    }

    /// In-neighbors of `id` in slot order (empty if absent), as
    /// [`Self::out_nbrs`].
    pub fn in_nbrs(&self, id: NodeId) -> Nbrs<'_> {
        let row = self
            .nodes
            .slot(id)
            .map_or(&[][..], |s| self.inn.row(s as usize));
        Nbrs::new(row, self)
    }

    /// Iterates over node ids in slot order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.live().map(|(_, id)| id)
    }

    /// Iterates over all directed edges as `(src, dst)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes
            .live()
            .flat_map(move |(s, id)| Nbrs::new(self.out.row(s), self).map(move |d| (id, d)))
    }

    /// Heap footprint in bytes: hash index, node side, and both
    /// orientations' offsets, slabs (dead ranges included), overlays and
    /// edited lists. This is what the paper's Table 2 reports as
    /// "In-memory Graph Size". Versions share all of it until they write
    /// it, and each version counts it in full:
    /// [`AdjacencyStats::shared_bytes`] says how much of the edited lists
    /// is shared.
    pub fn mem_size(&self) -> usize {
        self.nodes.mem_size() + self.out.mem_size() + self.inn.mem_size()
    }

    /// Builds a graph from per-node parts `(id, in_nbrs, out_nbrs)` whose
    /// neighbour ids are deduplicated and mutually consistent: node `k`
    /// takes slot `k`, and each list is stored as slots, sorted.
    ///
    /// # Panics
    /// On a duplicate node id, or a list naming an id no part holds.
    pub fn from_parts(parts: Vec<(NodeId, Vec<NodeId>, Vec<NodeId>)>) -> Self {
        let nodes = Nodes::bulk(parts.iter().map(|p| p.0).collect());
        let inn = Rows::packed(parts.iter().map(|(_, inn, _)| nodes.slots_of(inn)));
        let out = Rows::packed(parts.iter().map(|(_, _, out)| nodes.slots_of(out)));
        let n_edges = parts.iter().map(|p| p.2.len()).sum();
        Self {
            nodes,
            out,
            inn,
            n_edges,
        }
    }

    /// Bulk-builds a graph from slab-form adjacency (the conversion fill
    /// phase, induced subgraphs, the loaders): node `k` (with id `ids[k]`,
    /// distinct, placed in slot `k`) owns the neighbour slots
    /// `in_slab[in_off[k]..in_off[k+1]]` and
    /// `out_slab[out_off[k]..out_off[k+1]]`, each **ascending**, every one
    /// below `ids.len()`, and the two orientations must be mutually
    /// consistent. With `ids` ascending, slot order is id order.
    ///
    /// The graph keeps the slabs the producer filled in place (see
    /// [`crate::new_slab`]) and one `u32` offset a slot per orientation,
    /// and reserves the node hash table once (no grow/rehash cycles): no
    /// per-node allocation, and the adjacency is never copied. A row is
    /// copied into a list of its own only when an edit first touches it.
    ///
    /// # Panics
    /// Panics on duplicate ids; debug builds also check that slabs are
    /// fully covered and runs are sorted.
    pub fn from_sorted_parts(
        ids: Vec<NodeId>,
        in_off: &[usize],
        in_slab: Arc<[u32]>,
        out_off: &[usize],
        out_slab: Arc<[u32]>,
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
        Self {
            nodes: Nodes::bulk(ids),
            n_edges: out_slab.len(),
            out: Rows::bulk(out_off, out_slab),
            inn: Rows::bulk(in_off, in_slab),
        }
    }

    /// Adjacency-storage accounting: bulk rows vs lists of their own,
    /// live vs dead slab bytes. [`AdjacencyStats::dead_slab_bytes`] is the
    /// retention that edits leave and [`DirectedGraph::compact`] reclaims.
    pub fn adjacency_stats(&self) -> AdjacencyStats {
        let mut stats = AdjacencyStats::default();
        for rows in [&self.inn, &self.out] {
            rows.tally(self.nodes.live().map(|(s, _)| s), &mut stats);
        }
        stats
    }

    /// Rewrites each orientation into one fresh, exactly-sized slab and
    /// drops the overlays, releasing the dead slab ranges edits left
    /// behind and folding every edited list back into bulk storage.
    /// Adjacency is unchanged, and the graph stays fully dynamic.
    ///
    /// Rewriting the adjacency into a new immutable slab is exactly what
    /// a copy-on-write version publish does, so the core crate's
    /// `Catalog` runs this as one: clone (a few reference-count bumps),
    /// compact the clone, publish it as the next version, and let the
    /// epoch machinery retire the old slabs once unpinned.
    pub fn compact(&mut self) -> CompactStats {
        let before = self.adjacency_stats();
        for rows in [&mut self.inn, &mut self.out] {
            rows.compact(self.nodes.n_slots());
        }
        CompactStats {
            before,
            after: self.adjacency_stats(),
        }
    }

    /// The graph with every edge `u -> v` turned into `v -> u`: the two
    /// orientations trade places. The copy shares everything.
    pub fn reversed(&self) -> DirectedGraph {
        let mut r = self.clone();
        std::mem::swap(&mut r.inn, &mut r.out);
        r
    }
}

impl DirectedTopology for DirectedGraph {
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
        self.out.row(slot)
    }

    #[inline]
    fn in_row(&self, slot: usize) -> &[u32] {
        self.inn.row(slot)
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

/// One node's neighbours as ids, in the order its row stores them
/// (ascending slot): the row is read in place and each slot is mapped to
/// its id through the graph's node side. Returned by the graphs' id
/// accessors ([`DirectedGraph::out_nbrs`], [`crate::UndirectedGraph::nbrs`],
/// …); compares equal to a slice holding the same ids in the same order.
#[derive(Clone)]
pub struct Nbrs<'a> {
    row: std::slice::Iter<'a, u32>,
    g: &'a dyn DirectedTopology,
}

impl<'a> Nbrs<'a> {
    pub(crate) fn new(row: &'a [u32], g: &'a dyn DirectedTopology) -> Self {
        Self { row: row.iter(), g }
    }

    /// True when no neighbours are left.
    pub fn is_empty(&self) -> bool {
        self.row.len() == 0
    }

    #[inline]
    fn id(&self, slot: u32) -> NodeId {
        self.g
            .slot_id(slot as usize)
            .expect("a row names live slots only")
    }
}

impl Iterator for Nbrs<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let slot = *self.row.next()?;
        Some(self.id(slot))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.row.size_hint()
    }
}

impl ExactSizeIterator for Nbrs<'_> {}

impl std::fmt::Debug for Nbrs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl PartialEq<[NodeId]> for Nbrs<'_> {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.clone().eq(other.iter().copied())
    }
}

impl PartialEq<Nbrs<'_>> for Nbrs<'_> {
    fn eq(&self, other: &Nbrs<'_>) -> bool {
        self.clone().eq(other.clone())
    }
}

impl PartialEq<&[NodeId]> for Nbrs<'_> {
    fn eq(&self, other: &&[NodeId]) -> bool {
        *self == **other
    }
}

impl<const N: usize> PartialEq<&[NodeId; N]> for Nbrs<'_> {
    fn eq(&self, other: &&[NodeId; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq<Vec<NodeId>> for Nbrs<'_> {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        *self == other[..]
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
        for id in [0, 1, 3, 5, 7, 9] {
            g.add_node(id);
        }
        for dst in [5, 1, 9, 3, 7] {
            g.add_edge(0, dst);
        }
        assert_eq!(g.out_nbrs(0), &[1, 3, 5, 7, 9]);
        assert_eq!(g.out_row(0), &[1, 2, 3, 4, 5]);
        assert_eq!(g.out_degree(0), Some(5));
        assert_eq!(g.in_degree(0), Some(0));
        // A node added later takes the next slot: rows stay sorted by slot.
        g.add_edge(0, -1);
        assert_eq!(g.out_nbrs(0), &[1, 3, 5, 7, 9, -1]);
        assert!(g.out_row(0).is_sorted());
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
        g.add_edge(1, 2);
        g.add_edge(2, 2);
        g.del_node(1);
        g.add_edge(3, 2);
        assert_eq!(g.n_slots(), 2, "freed slot is recycled");
        let ids: Vec<_> = g.node_ids().collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&2) && ids.contains(&3));
        // Slot 0 now names 3: 2's in-row lists it first, before 2 itself.
        assert_eq!(g.in_nbrs(2), &[3, 2]);
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
        // Edges (1,2) (1,3) (2,3) (3,1) in slab form; ids 1, 2, 3 take
        // slots 0, 1, 2.
        let ids = vec![1i64, 2, 3];
        let out_off = [0usize, 2, 3, 4];
        let out_slab = [1u32, 2, 2, 0];
        let in_off = [0usize, 1, 2, 4];
        let in_slab = [2u32, 0, 0, 1];
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
        assert!(g.mem_size() > empty + 1000 * 8 / 2);
    }

    #[test]
    fn negative_and_large_ids() {
        let mut g = DirectedGraph::new();
        g.add_edge(-10, i64::MAX);
        assert!(g.has_edge(-10, i64::MAX));
        assert_eq!(g.out_nbrs(-10), &[i64::MAX]);
    }

    #[test]
    fn i64_min_is_a_node_like_any_other() {
        let mut g = DirectedGraph::new();
        assert!(g.add_edge(i64::MIN, 1));
        assert!(g.add_edge(1, i64::MIN));
        assert!(g.add_node(i64::MAX));
        assert!(g.has_node(i64::MIN) && g.has_edge(i64::MIN, 1));
        assert_eq!(g.out_nbrs(1), &[i64::MIN]);
        assert_eq!(g.in_nbrs(i64::MIN), &[1]);
        assert!(g.del_edge(i64::MIN, 1));
        assert!(g.del_node(i64::MIN));
        assert!(!g.has_node(i64::MIN));
        assert_eq!((g.node_count(), g.edge_count()), (2, 0));
    }

    /// A bulk-loaded chain graph with ids 0..n in slots 0..n (so every
    /// endpoint is a distinct node and the slab layout is easy to reason
    /// about).
    fn chain_graph(n: usize) -> DirectedGraph {
        let ids: Vec<NodeId> = (0..n as NodeId).collect();
        let mut out_off = vec![0usize];
        let mut out_slab = Vec::new();
        let mut in_off = vec![0usize];
        let mut in_slab = Vec::new();
        for k in 0..n as u32 {
            if k as usize + 1 < n {
                out_slab.push(k + 1);
            }
            out_off.push(out_slab.len());
            if k > 0 {
                in_slab.push(k - 1);
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
            .map(|id| (id, g.in_nbrs(id).collect(), g.out_nbrs(id).collect()))
            .collect();
        let stats = g.compact();
        assert_eq!(stats.after.owned_lists, 0, "everything rebound as views");
        assert_eq!(stats.after.dead_slab_bytes(), 0);
        assert!(stats.reclaimed_bytes() > 0);
        assert!(stats.after.footprint_bytes() < stats.before.footprint_bytes());
        for (id, ins, outs) in want {
            assert_eq!(g.in_nbrs(id), ins, "in-adjacency preserved");
            assert_eq!(g.out_nbrs(id), outs, "out-adjacency preserved");
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
