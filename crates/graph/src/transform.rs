//! Graph transformations: induced subgraphs, edge reversal, and id
//! renumbering — the "powerful operations to construct various types of
//! graphs" an exploratory workflow composes between algorithm runs.

use crate::{new_slab, DirectedGraph, DirectedTopology, NodeId, UndirectedGraph};
use ringo_concurrent::hash_table::EMPTY_KEY;
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

    /// The graph left when the nodes in the slots `gone` are deleted, for
    /// a caller that met every edge this cuts on its way: `cuts` holds one
    /// `(slot, removed slot)` pair for each edge between a surviving node
    /// and a removed neighbour. Pairs whose first slot is itself in `gone`
    /// are ignored, so a peel may record a cut before it knows whether
    /// the neighbour lasts. Equal to [`Self::induced`] on the surviving
    /// ids — same slot order, same lists — at a cost set by the removed
    /// side: a row no cut names is copied whole, the others are spliced
    /// around their cuts, and no stored neighbour is looked up.
    ///
    /// # Panics
    /// When a cut names an edge the graph does not hold, names it twice,
    /// or names a neighbour that is not in `gone`. A surviving edge to a
    /// removed node that no cut names is the caller's error and is not
    /// detected.
    pub fn without(&self, gone: &[u32], cuts: &[(u32, u32)]) -> UndirectedGraph {
        const GONE: u32 = u32::MAX;
        assert!(cuts.len() < GONE as usize, "cut positions are u32");
        // Per slot: how many cuts name it; then where its next cut id
        // goes, which once all are placed is one past its last.
        let mut at = vec![0u32; self.n_slots()];
        for &s in gone {
            at[s as usize] = GONE;
        }
        for &(s, _) in cuts {
            let n = &mut at[s as usize];
            *n += u32::from(*n != GONE);
        }
        let kept = self.node_count().saturating_sub(gone.len());
        let mut slots = Vec::with_capacity(kept);
        let mut ids = Vec::with_capacity(kept);
        let mut off = Vec::with_capacity(kept + 1);
        off.push(0);
        let (mut placed, mut total) = (0u32, 0usize);
        for (s, next) in at.iter_mut().enumerate() {
            if *next == GONE {
                continue;
            }
            let Some(id) = self.slot_id(s) else {
                assert_eq!(*next, 0, "a cut names a vacant slot");
                continue;
            };
            let n_cuts = std::mem::replace(next, placed);
            placed += n_cuts;
            total += self
                .nbrs_of_slot(s)
                .len()
                .checked_sub(n_cuts as usize)
                .expect("no more cuts than neighbours");
            slots.push(s);
            ids.push(id);
            off.push(total);
        }
        let mut cut_ids: Vec<NodeId> = vec![0; placed as usize];
        for &(s, r) in cuts {
            assert_eq!(at[r as usize], GONE, "a cut names a removed neighbour");
            let next = &mut at[s as usize];
            if *next != GONE {
                cut_ids[*next as usize] = self.slot_id(r as usize).expect("removed slot is live");
                *next += 1;
            }
        }
        let mut slab = new_slab(total);
        let buf = Arc::get_mut(&mut slab).expect("fresh slab is unshared");
        let mut lo = 0;
        for (k, &s) in slots.iter().enumerate() {
            let hi = at[s] as usize;
            cut_ids[lo..hi].sort_unstable();
            splice_out(
                self.nbrs_of_slot(s),
                &cut_ids[lo..hi],
                &mut buf[off[k]..off[k + 1]],
            );
            lo = hi;
        }
        UndirectedGraph::from_sorted_parts(ids, &off, slab)
    }
}

/// Copies the sorted `row` to `out` without the ids in `cuts` — sorted,
/// distinct and all present in `row` — one block per gap between cuts.
fn splice_out(mut row: &[NodeId], cuts: &[NodeId], mut out: &mut [NodeId]) {
    for &c in cuts {
        let at = row.partition_point(|&n| n < c);
        assert_eq!(row.get(at), Some(&c), "cut names a stored neighbour");
        let (head, tail) = out.split_at_mut(at);
        head.copy_from_slice(&row[..at]);
        (row, out) = (&row[at + 1..], tail);
    }
    out.copy_from_slice(row);
}

/// The set of `nodes`. The reserved id is no graph's node, so it is left
/// out rather than handed to `insert`, which refuses it.
fn id_set(nodes: &[NodeId]) -> IntHashTable<()> {
    let mut set = IntHashTable::with_capacity(nodes.len());
    for &n in nodes {
        if n != EMPTY_KEY {
            set.insert(n, ());
        }
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
    fn reserved_id_is_no_node_and_subgraph_skips_it() {
        // `i64::MIN` marks an empty index slot; in release builds a lookup
        // of it used to land on one and report a node.
        let g = sample();
        assert!(!g.has_node(i64::MIN));
        assert!(g.out_nbrs(i64::MIN).is_empty());
        assert_eq!(g.out_degree(i64::MIN), None);
        assert!(!g.has_edge(1, i64::MIN) && !g.has_edge(i64::MIN, 1));
        assert_eq!(g.subgraph(&[1, i64::MIN, 2]).node_count(), 2);
        let mut u = UndirectedGraph::new();
        u.add_edge(1, 2);
        assert!(!u.has_node(i64::MIN));
        assert!(u.nbrs(i64::MIN).is_empty());
        assert_eq!(u.degree(i64::MIN), None);
        assert!(!u.del_node(i64::MIN) && !u.del_edge(i64::MIN, 1));
        let s = u.subgraph(&[1, i64::MIN]);
        assert_eq!((s.node_count(), s.edge_count()), (1, 0));
    }

    /// Slot ids and lists of `g`, vacant slots included.
    fn layout(g: &UndirectedGraph) -> Vec<(Option<NodeId>, &[NodeId])> {
        (0..g.n_slots())
            .map(|s| (g.slot_id(s), g.nbrs_of_slot(s)))
            .collect()
    }

    #[test]
    fn without_equals_induced_on_the_survivors() {
        // Ids out of slot order, a self-loop on a survivor and on a
        // removed node, a vacant slot, an edge between two removed nodes.
        let mut g = UndirectedGraph::new();
        for (a, b) in [
            (5, 1),
            (5, 9),
            (5, 3),
            (1, 9),
            (3, 3),
            (9, 9),
            (7, 1),
            (7, 3),
            (2, 5),
        ] {
            g.add_edge(a, b);
        }
        g.del_node(2);
        let slot = |id| g.slot_of(id).unwrap() as u32;
        // Remove 3 and 7; 3-7 is cut once, from the side that fell first.
        let gone = [slot(3), slot(7)];
        let cuts = [(slot(5), slot(3)), (slot(7), slot(3)), (slot(1), slot(7))];
        let got = g.without(&gone, &cuts);
        let want = g.induced(|id| id != 3 && id != 7);
        assert_eq!(layout(&got), layout(&want));
        assert_eq!(got.node_count(), 3);
        assert_eq!(got.edge_count(), want.edge_count());
        assert_eq!(got.nbrs(5), &[1, 9]);
        assert_eq!(got.nbrs(9), &[1, 5, 9]);
        // Nothing removed: a straight copy. Everything removed: empty.
        assert_eq!(layout(&g.without(&[], &[])), layout(&g.induced(|_| true)));
        let all: Vec<u32> = g.node_ids().map(slot).collect();
        assert!(g.without(&all, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "cut names a stored neighbour")]
    fn without_refuses_a_cut_the_graph_does_not_hold() {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_node(4);
        let slot = |id| g.slot_of(id).unwrap() as u32;
        g.without(&[slot(4)], &[(slot(1), slot(4))]);
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
