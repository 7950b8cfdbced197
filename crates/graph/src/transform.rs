//! Graph transformations: induced subgraphs, edge reversal, and id
//! renumbering — the "powerful operations to construct various types of
//! graphs" an exploratory workflow composes between algorithm runs.

use crate::{new_slab, DirectedGraph, DirectedTopology, NodeId, UndirectedGraph};
use ringo_concurrent::IntHashTable;
use std::sync::Arc;

impl DirectedGraph {
    /// The subgraph induced by `nodes`: those nodes and every edge whose
    /// endpoints are both in the set. Unknown ids are ignored.
    pub fn subgraph(&self, nodes: &[NodeId]) -> DirectedGraph {
        let keep = id_set(nodes);
        self.induced(|id| keep.contains(id))
    }

    /// The subgraph induced by the nodes `keep` accepts, built in slab
    /// form: an exact count pass sizes the two adjacency slabs, a second
    /// pass fills them in place, and the result's lists are views into
    /// them. Kept nodes keep their relative slot order.
    pub fn induced(&self, keep: impl Fn(NodeId) -> bool) -> DirectedGraph {
        let (slots, ids) = kept_slots(self, &keep);
        let (in_off, in_slab) = filtered_slab(&slots, |s| self.in_nbrs_of_slot(s), &keep);
        let (out_off, out_slab) = filtered_slab(&slots, |s| self.out_nbrs_of_slot(s), &keep);
        DirectedGraph::from_sorted_parts(ids, &in_off, in_slab, &out_off, out_slab)
    }

    /// The reverse graph: every edge `u -> v` becomes `v -> u`. Cheap —
    /// in/out adjacency vectors are swapped per node, no re-sorting.
    pub fn reversed(&self) -> DirectedGraph {
        let parts = self
            .node_ids()
            .map(|id| {
                (
                    id,
                    self.out_nbrs(id).to_vec(), // old out becomes new in
                    self.in_nbrs(id).to_vec(),  // old in becomes new out
                )
            })
            .collect();
        DirectedGraph::from_parts(parts)
    }

    /// Renumbers nodes to dense ids `0..n` (in ascending order of the old
    /// ids). Returns the new graph and the old→new mapping. Useful before
    /// exporting to array-indexed tools.
    pub fn renumbered(&self) -> (DirectedGraph, IntHashTable<NodeId>) {
        let mut old_ids: Vec<NodeId> = self.node_ids().collect();
        old_ids.sort_unstable();
        let mut mapping: IntHashTable<NodeId> = IntHashTable::with_capacity(old_ids.len());
        for (new, &old) in old_ids.iter().enumerate() {
            mapping.insert(old, new as NodeId);
        }
        let remap = |ids: &[NodeId]| -> Vec<NodeId> {
            // Old adjacency is sorted by old id, and the mapping is
            // monotone, so the remapped vector stays sorted.
            ids.iter()
                .map(|&n| *mapping.get(n).expect("node mapped"))
                .collect()
        };
        let parts = old_ids
            .iter()
            .map(|&old| {
                (
                    *mapping.get(old).expect("node mapped"),
                    remap(self.in_nbrs(old)),
                    remap(self.out_nbrs(old)),
                )
            })
            .collect();
        (DirectedGraph::from_parts(parts), mapping)
    }
}

impl UndirectedGraph {
    /// The subgraph induced by `nodes` (see
    /// [`DirectedGraph::subgraph`]).
    pub fn subgraph(&self, nodes: &[NodeId]) -> UndirectedGraph {
        let keep = id_set(nodes);
        self.induced(|id| keep.contains(id))
    }

    /// The subgraph induced by the nodes `keep` accepts (see
    /// [`DirectedGraph::induced`]).
    pub fn induced(&self, keep: impl Fn(NodeId) -> bool) -> UndirectedGraph {
        let (slots, ids) = kept_slots(self, &keep);
        let (off, slab) = filtered_slab(&slots, |s| self.nbrs_of_slot(s), &keep);
        UndirectedGraph::from_sorted_parts(ids, &off, slab)
    }
}

fn id_set(nodes: &[NodeId]) -> IntHashTable<()> {
    let mut set = IntHashTable::with_capacity(nodes.len());
    for &n in nodes {
        set.insert(n, ());
    }
    set
}

/// Live slots of `g` whose node `keep` accepts, with their ids.
fn kept_slots<G: DirectedTopology>(
    g: &G,
    keep: &impl Fn(NodeId) -> bool,
) -> (Vec<usize>, Vec<NodeId>) {
    (0..g.n_slots())
        .filter_map(|s| g.slot_id(s).filter(|&id| keep(id)).map(|id| (s, id)))
        .unzip()
}

/// Slab-form copy of `nbrs(slot)` for each of `slots`, restricted to the
/// ids `keep` accepts: an exact count pass yields the prefix offsets,
/// then the slab is allocated at its final size and filled in place.
/// `keep` is typically a hash probe, so the count pass remembers each
/// verdict as one bit and the fill pass replays them.
fn filtered_slab<'g>(
    slots: &[usize],
    nbrs: impl Fn(usize) -> &'g [NodeId],
    keep: &impl Fn(NodeId) -> bool,
) -> (Vec<usize>, Arc<[NodeId]>) {
    let stored: usize = slots.iter().map(|&s| nbrs(s).len()).sum();
    let mut verdicts = vec![0u64; stored.div_ceil(64)];
    let mut off = Vec::with_capacity(slots.len() + 1);
    let (mut seen, mut total) = (0usize, 0usize);
    off.push(0);
    for &s in slots {
        for &n in nbrs(s) {
            let kept = keep(n);
            verdicts[seen / 64] |= u64::from(kept) << (seen % 64);
            seen += 1;
            total += usize::from(kept);
        }
        off.push(total);
    }
    let mut slab = new_slab(total);
    let buf = Arc::get_mut(&mut slab).expect("fresh slab is unshared");
    let kept = slots
        .iter()
        .flat_map(|&s| nbrs(s))
        .enumerate()
        .filter(|&(i, _)| verdicts[i / 64] >> (i % 64) & 1 == 1);
    for (o, (_, &n)) in buf.iter_mut().zip(kept) {
        *o = n;
    }
    (off, slab)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DirectedGraph {
        let mut g = DirectedGraph::new();
        for (s, d) in [(1, 2), (2, 3), (3, 1), (3, 4), (4, 4)] {
            g.add_edge(s, d);
        }
        g
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = sample();
        let s = g.subgraph(&[1, 2, 3, 99]);
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.edge_count(), 3, "triangle kept, edges to 4 dropped");
        assert!(s.has_edge(3, 1));
        assert!(!s.has_node(4));
        // Empty and full selections.
        assert_eq!(g.subgraph(&[]).node_count(), 0);
        let all: Vec<i64> = g.node_ids().collect();
        let full = g.subgraph(&all);
        assert_eq!(full.edge_count(), g.edge_count());
    }

    #[test]
    fn reversed_swaps_edge_direction() {
        let g = sample();
        let r = g.reversed();
        assert_eq!(r.node_count(), g.node_count());
        assert_eq!(r.edge_count(), g.edge_count());
        for (s, d) in g.edges() {
            assert!(r.has_edge(d, s));
        }
        assert!(r.has_edge(4, 4), "self-loop survives");
        // Double reversal is the identity.
        let rr = r.reversed();
        for id in g.node_ids() {
            assert_eq!(rr.out_nbrs(id), g.out_nbrs(id));
        }
    }

    #[test]
    fn renumbered_is_dense_and_isomorphic() {
        let mut g = DirectedGraph::new();
        g.add_edge(100, 7);
        g.add_edge(7, 55);
        g.add_edge(55, 100);
        let (r, mapping) = g.renumbered();
        let mut new_ids: Vec<i64> = r.node_ids().collect();
        new_ids.sort_unstable();
        assert_eq!(new_ids, vec![0, 1, 2]);
        for (s, d) in g.edges() {
            let (ns, nd) = (*mapping.get(s).unwrap(), *mapping.get(d).unwrap());
            assert!(r.has_edge(ns, nd));
        }
        assert_eq!(r.edge_count(), g.edge_count());
        // Ascending old ids map to ascending new ids.
        assert!(mapping.get(7).unwrap() < mapping.get(55).unwrap());
    }

    #[test]
    fn undirected_subgraph() {
        let mut g = UndirectedGraph::new();
        for (a, b) in [(1, 2), (2, 3), (3, 1), (3, 4)] {
            g.add_edge(a, b);
        }
        let s = g.subgraph(&[1, 2, 3]);
        assert_eq!(s.edge_count(), 3);
        assert!(!s.has_node(4));
        assert_eq!(s.nbrs(3), &[1, 2]);
    }
}
