//! The paper's dynamic graph: an id index over slots with sorted
//! adjacency rows per node — in- and out-rows on a directed graph, one
//! row on an undirected one.

use crate::nbrs::{AdjacencyStats, CompactStats, Nodes, Rank, Rows};
use crate::topology::DirectedTopology;
use crate::{slot_u32, NodeId, NodeValues};
use std::sync::Arc;

/// A dynamic graph (multi-edges disallowed, self-loops allowed), directed
/// when `DIRECTED` and undirected otherwise: [`DirectedGraph`] and
/// [`UndirectedGraph`].
///
/// Nodes live in slots addressed through an id index (id → slot: a
/// [`crate::Rank`] and an overlay). Each node keeps its out-neighbours as
/// a row of neighbour *slots* (4 bytes a neighbour), sorted by slot, and a
/// directed graph also its in-neighbours. An undirected graph stores one
/// row a node — its in-rows are its out-rows — with each edge `{a, b}` in
/// both endpoints' rows and a self-loop once, in its own node's row. So:
///
/// * `has_edge` is `O(log deg)`,
/// * `add_edge` / `del_edge` are `O(deg)` (vector insert/remove at a binary-
///   searched position) — the paper's headline contrast with CSR's `O(E)`,
/// * a kernel walks a row in place as slots ([`DirectedTopology`]); the id
///   accessors ([`DirectedGraph::out_nbrs`], [`UndirectedGraph::nbrs`], …)
///   map each slot to its id through the node side,
/// * `clone` allocates nothing: the copy shares the id index, the node
///   side, every orientation's slab and offsets and every edited list
///   until it writes them (the node side only when a node is added or
///   deleted; an orientation's overlay, 8 bytes a slot, on the copy's
///   first edit of it; a list on the copy's first edit of that list).
///
/// A bulk-built slot costs 16 bytes beside the index on a directed graph —
/// its id and one 4-byte offset per orientation into the shared slabs —
/// and 12 on an undirected one.
///
/// Slot order is id order on a graph built in bulk from ascending ids
/// (conversions, `induced`, the loaders). A node added later takes the
/// next free slot, so its neighbours list it in slot order, not id order.
#[derive(Clone, Debug, Default)]
pub struct Graph<const DIRECTED: bool> {
    nodes: Nodes,
    /// Out-neighbour slots; empty for a vacant slot.
    out: Rows,
    /// In-neighbour slots, as `out`, on a directed graph. An undirected
    /// graph's in-rows are `out`, and this stays empty (0 B of
    /// `mem_size`).
    inn: Rows,
    /// Stored out-row entries: the directed edges, or an undirected
    /// graph's arcs (two an edge, one a self-loop).
    arcs: usize,
    /// An undirected graph's self-loops; 0 on a directed graph.
    loops: usize,
}

/// The paper's dynamic directed graph: sorted in- and out-rows per node.
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
pub type DirectedGraph = Graph<true>;

/// A dynamic undirected graph: one sorted row of neighbours per node
/// (self-loops stored once).
pub type UndirectedGraph = Graph<false>;

impl<const DIRECTED: bool> Graph<DIRECTED> {
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

    /// Number of edges: directed edges, or undirected edges each counted
    /// once.
    pub fn edge_count(&self) -> usize {
        if DIRECTED {
            self.arcs
        } else {
            (self.arcs + self.loops) / 2
        }
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 0
    }

    /// True when `id` is a node of the graph.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.nodes.slot(id).is_some()
    }

    /// True when the edge `src -> dst` (undirected: `{src, dst}`) exists.
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

    /// Adds the edge `src -> dst` (undirected: `{src, dst}`), creating
    /// missing endpoints. Returns `false` if the edge already existed.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let (s, _) = self.nodes.ensure(src);
        let (d, _) = self.nodes.ensure(dst);
        self.edit(s, d, true)
    }

    /// Deletes the edge `src -> dst` (undirected: `{src, dst}`). Returns
    /// `false` if it did not exist. Cost is `O(out_deg(src) + in_deg(dst))`,
    /// not `O(E)`.
    pub fn del_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let (Some(s), Some(d)) = (self.nodes.slot(src), self.nodes.slot(dst)) else {
            return false;
        };
        self.edit(s, d, false)
    }

    /// Adds (`add`) or deletes the edge from slot `s` to slot `d`: `d` in
    /// `s`'s out-row and the reverse entry, `s` in `d`'s in-row — on an
    /// undirected graph `d`'s out-row, and on its self-loop no second
    /// entry. Returns `false` when the edge already was (was not) there.
    fn edit(&mut self, s: u32, d: u32, add: bool) -> bool {
        let n = self.nodes.n_slots();
        if !write(&mut self.out, s, d, add, n) {
            return false;
        }
        let reverse = DIRECTED || s != d;
        if reverse {
            assert!(write(self.in_rows_mut(), d, s, add, n), "{OUT_OF_SYNC}");
        }
        let (arcs, loops) = (1 + usize::from(!DIRECTED && reverse), usize::from(!reverse));
        if add {
            (self.arcs, self.loops) = (self.arcs + arcs, self.loops + loops);
        } else {
            (self.arcs, self.loops) = (self.arcs - arcs, self.loops - loops);
        }
        true
    }

    /// Deletes node `id` and all incident edges. Returns `false` if absent.
    pub fn del_node(&mut self, id: NodeId) -> bool {
        let Some(slot) = self.nodes.release(id) else {
            return false;
        };
        let (s, n) = (slot as usize, self.nodes.n_slots());
        let out = std::mem::take(self.out.to_mut(s, n));
        let inn = match DIRECTED {
            true => std::mem::take(self.inn.to_mut(s, n)),
            false => Vec::new(),
        };
        // Remove `slot` from the in-rows of its out-neighbours and from the
        // out-rows of its in-neighbours.
        for &v in out.iter().filter(|&&v| v != slot) {
            assert!(
                write(self.in_rows_mut(), v, slot, false, n),
                "{OUT_OF_SYNC}"
            );
        }
        for &v in inn.iter().filter(|&&v| v != slot) {
            assert!(write(&mut self.out, v, slot, false, n), "{OUT_OF_SYNC}");
        }
        let self_loop = usize::from(out.binary_search(&slot).is_ok());
        let reverse = if DIRECTED { inn.len() } else { out.len() };
        self.arcs -= out.len() + reverse - self_loop;
        self.loops -= if DIRECTED { 0 } else { self_loop };
        true
    }

    /// Iterates over node ids in slot order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.live().map(|(_, id)| id)
    }

    /// Iterates over all edges: directed ones as `(src, dst)` pairs,
    /// undirected ones once each, as `(a, b)` with `a <= b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.live().flat_map(move |(s, id)| {
            Nbrs::new(self.out.row(s), &self.nodes)
                .filter(move |&n| DIRECTED || n >= id)
                .map(move |n| (id, n))
        })
    }

    /// Heap footprint in bytes: id index, node side, and every stored
    /// orientation's offsets, slabs (dead ranges included), overlays and
    /// edited lists. This is what the paper's Table 2 reports as
    /// "In-memory Graph Size". Versions share all of it until they write
    /// it, and each version counts it in full:
    /// [`AdjacencyStats::shared_bytes`] says how much of the edited lists
    /// is shared.
    pub fn mem_size(&self) -> usize {
        self.nodes.mem_size() + self.out.mem_size() + self.inn.mem_size()
    }

    /// `from_sorted_parts` on ids a producer already ranked its neighbours
    /// through: the rank becomes the graph's id index. `out` and `inn`
    /// are an orientation's `(offsets, slab)`; only a directed graph has
    /// `inn`.
    ///
    /// # Panics
    /// As `from_sorted_parts`, and when `inn` is given to an undirected
    /// graph or missing on a directed one.
    pub fn from_ranked_parts<O: AsRef<[usize]>>(
        rank: Rank,
        out: (O, Arc<[u32]>),
        inn: Option<(O, Arc<[u32]>)>,
    ) -> Self {
        assert_eq!(inn.is_some(), DIRECTED, "in-rows on a directed graph only");
        let rows = |(off, slab): (O, Arc<[u32]>)| {
            let (off, n) = (off.as_ref(), rank.ids().len());
            assert_eq!(off.len(), n + 1, "offsets: one bound per node plus one");
            Rows::slots(off, slab)
        };
        let (out, inn) = (rows(out), inn.map(rows).unwrap_or_default());
        Self::from_rows(Nodes::bulk(rank), out, inn)
    }

    /// The graph of bulk-built `nodes` and rows (`inn` empty when
    /// undirected).
    fn from_rows(nodes: Nodes, out: Rows, inn: Rows) -> Self {
        let n = nodes.n_slots();
        let arcs = (0..n).map(|k| out.row(k).len()).sum();
        let loops = match DIRECTED {
            true => 0,
            false => (0..n)
                .filter(|&k| out.row(k).binary_search(&slot_u32(k)).is_ok())
                .count(),
        };
        Self {
            nodes,
            out,
            inn,
            arcs,
            loops,
        }
    }

    /// Adjacency-storage accounting: bulk rows vs lists of their own,
    /// live vs dead slab bytes. [`AdjacencyStats::dead_slab_bytes`] is the
    /// retention that edits leave and [`Self::compact`] reclaims.
    pub fn adjacency_stats(&self) -> AdjacencyStats {
        let mut stats = AdjacencyStats::default();
        let live = || self.nodes.live().map(|(s, _)| s);
        self.out.tally(live(), &mut stats);
        if DIRECTED {
            self.inn.tally(live(), &mut stats);
        }
        stats
    }

    /// Rewrites each stored orientation into one fresh, exactly-sized slab
    /// and drops the overlays, releasing the dead slab ranges edits left
    /// behind and folding every edited list back into bulk storage.
    /// Adjacency is unchanged, and the graph stays fully dynamic.
    ///
    /// Rewriting the adjacency into a new immutable slab is exactly what
    /// a copy-on-write version publish does, so the core crate's
    /// `Catalog` runs this as one: clone (a few reference-count bumps),
    /// compact the clone, publish it as the next version, and the old
    /// slabs are freed when the last snapshot holding them drops.
    pub fn compact(&mut self) -> CompactStats {
        let before = self.adjacency_stats();
        self.out.compact(self.nodes.n_slots());
        if DIRECTED {
            self.inn.compact(self.nodes.n_slots());
        }
        CompactStats {
            before,
            after: self.adjacency_stats(),
        }
    }

    /// The in-rows to edit: an undirected graph's are its out-rows.
    fn in_rows_mut(&mut self) -> &mut Rows {
        if DIRECTED {
            &mut self.inn
        } else {
            &mut self.out
        }
    }

    /// Node `id`'s row of `rows`, `None` if the node is absent.
    fn row_of<'a>(&'a self, rows: &'a Rows, id: NodeId) -> Option<&'a [u32]> {
        self.nodes.slot(id).map(|s| rows.row(s as usize))
    }
}

/// An edge's reverse entry is not where its entry says.
const OUT_OF_SYNC: &str = "the two orientations' rows out of sync";

/// Inserts (`add`) or removes `v` in row `s` of `rows`, in a graph of `n`
/// slots; `false`, and nothing copied, when the row already holds (lacks)
/// it.
fn write(rows: &mut Rows, s: u32, v: u32, add: bool, n: usize) -> bool {
    match (rows.row(s as usize).binary_search(&v), add) {
        (Err(pos), true) => rows.to_mut(s as usize, n).insert(pos, v),
        (Ok(pos), false) => {
            rows.to_mut(s as usize, n).remove(pos);
        }
        _ => return false,
    }
    true
}

impl DirectedGraph {
    /// Out-degree of `id`, or `None` if the node is absent.
    pub fn out_degree(&self, id: NodeId) -> Option<usize> {
        self.row_of(&self.out, id).map(<[u32]>::len)
    }

    /// In-degree of `id`, or `None` if the node is absent.
    pub fn in_degree(&self, id: NodeId) -> Option<usize> {
        self.row_of(&self.inn, id).map(<[u32]>::len)
    }

    /// Out-neighbors of `id` in slot order (empty if absent) — id order
    /// unless nodes were added after a bulk build (see [`Graph`]).
    pub fn out_nbrs(&self, id: NodeId) -> Nbrs<'_> {
        Nbrs::new(self.row_of(&self.out, id).unwrap_or_default(), &self.nodes)
    }

    /// In-neighbors of `id` in slot order (empty if absent), as
    /// [`Self::out_nbrs`].
    pub fn in_nbrs(&self, id: NodeId) -> Nbrs<'_> {
        Nbrs::new(self.row_of(&self.inn, id).unwrap_or_default(), &self.nodes)
    }

    /// Builds a graph from per-node parts `(id, in_nbrs, out_nbrs)` whose
    /// neighbour ids are deduplicated and mutually consistent: node `k`
    /// takes slot `k`, and each list is stored as slots, sorted.
    ///
    /// # Panics
    /// On a duplicate node id, or a list naming an id no part holds.
    pub fn from_parts(parts: Vec<(NodeId, Vec<NodeId>, Vec<NodeId>)>) -> Self {
        let nodes = Nodes::bulk(Rank::new(parts.iter().map(|p| p.0).collect()));
        let inn = Rows::packed(parts.iter().map(|(_, inn, _)| nodes.slots_of(inn)));
        let out = Rows::packed(parts.iter().map(|(_, _, out)| nodes.slots_of(out)));
        Self::from_rows(nodes, out, inn)
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
    /// and indexes the ids once, through a [`Rank`]: no per-node
    /// allocation, and the adjacency is never copied. A row is copied
    /// into a list of its own only when an edit first touches it.
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
        let inn = Some((in_off, in_slab));
        Self::from_ranked_parts(Rank::new(ids), (out_off, out_slab), inn)
    }

    /// The graph with every edge `u -> v` turned into `v -> u`: the two
    /// orientations trade places. The copy shares everything.
    pub fn reversed(&self) -> DirectedGraph {
        let mut r = self.clone();
        std::mem::swap(&mut r.inn, &mut r.out);
        r
    }
}

impl UndirectedGraph {
    /// Degree of `id` (self-loop counts once), or `None` if absent.
    pub fn degree(&self, id: NodeId) -> Option<usize> {
        self.row_of(&self.out, id).map(<[u32]>::len)
    }

    /// Neighbors of `id` in slot order (empty if absent) — id order unless
    /// nodes were added after a bulk build (see [`Graph`]).
    pub fn nbrs(&self, id: NodeId) -> Nbrs<'_> {
        Nbrs::new(self.row_of(&self.out, id).unwrap_or_default(), &self.nodes)
    }

    /// Builds a graph from `(id, deduplicated neighbor ids)` parts that
    /// are mutually consistent. Counterpart of
    /// [`DirectedGraph::from_parts`].
    pub fn from_parts(parts: Vec<(NodeId, Vec<NodeId>)>) -> Self {
        let nodes = Nodes::bulk(Rank::new(parts.iter().map(|p| p.0).collect()));
        let out = Rows::packed(parts.iter().map(|p| nodes.slots_of(&p.1)));
        Self::from_rows(nodes, out, Rows::default())
    }

    /// [`DirectedGraph::from_sorted_parts`] with one orientation: node `k`
    /// owns the neighbour slots `slab[off[k]..off[k+1]]`, with each edge
    /// `{a, b}` in both endpoints' runs (self-loops once).
    pub fn from_sorted_parts(ids: Vec<NodeId>, off: &[usize], slab: Arc<[u32]>) -> Self {
        Self::from_ranked_parts(Rank::new(ids), (off, slab), None)
    }
}

/// The slot rows every kernel reads. An undirected graph is a symmetric
/// directed topology: its in-rows are its out-rows, so every
/// `DirectedTopology` algorithm (BFS, the frontier engine, reachability)
/// runs unchanged with `Direction::Out`, and `edge_count` reports its
/// arcs — `2m` minus one per self-loop — keeping degree sums and edge
/// counts consistent.
impl<const DIRECTED: bool> DirectedTopology for Graph<DIRECTED> {
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
        if DIRECTED {
            self.inn.row(slot)
        } else {
            self.out.row(slot)
        }
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn edge_count(&self) -> usize {
        self.arcs
    }

    fn is_symmetric(&self) -> bool {
        !DIRECTED
    }

    fn node_values<T>(
        &self,
        per_slot: Vec<T>,
        count: usize,
        keep: impl Fn(&T) -> bool,
    ) -> NodeValues<T> {
        NodeValues::pack(&self.nodes, per_slot, count, keep)
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
    nodes: &'a Nodes,
}

impl<'a> Nbrs<'a> {
    fn new(row: &'a [u32], nodes: &'a Nodes) -> Self {
        Self {
            row: row.iter(),
            nodes,
        }
    }

    /// True when no neighbours are left.
    pub fn is_empty(&self) -> bool {
        self.row.len() == 0
    }

    #[inline]
    fn id(&self, slot: u32) -> NodeId {
        self.nodes
            .id(slot as usize)
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
