//! Graph transformations: induced subgraphs, the undirected view, and
//! id renumbering — the "powerful operations to construct various types
//! of graphs" an exploratory workflow composes between algorithm runs.
//!
//! Each result is built in slab form: the kept nodes are renumbered
//! densely in slot order (an old → new slot map), every kept row is
//! rewritten through the map into a slab sized by a count pass, and
//! `from_sorted_parts` installs the slabs. The map is monotone, so rows
//! stay sorted and a graph whose slot order was id order keeps it.

use crate::{new_slab, DirectedGraph, DirectedTopology, NodeId, UndirectedGraph};
use ringo_concurrent::IntHashTable;
use std::sync::Arc;

/// Marks a slot the map drops.
const DROPPED: u32 = u32::MAX;

impl DirectedGraph {
    /// The subgraph induced by `nodes`: those nodes and every edge whose
    /// endpoints are both in the set. Unknown ids are ignored.
    pub fn subgraph(&self, nodes: &[NodeId]) -> DirectedGraph {
        let keep = marked(self, nodes);
        directed_copy(self, |s, _| keep[s])
    }

    /// The subgraph induced by the nodes `keep` accepts (asked once per
    /// node); kept nodes keep their relative slot order.
    pub fn induced(&self, keep: impl Fn(NodeId) -> bool) -> DirectedGraph {
        directed_copy(self, |_, id| keep(id))
    }

    /// Collapses edge direction, returning the undirected version of this
    /// graph (self-loops preserved, reciprocal edges merged).
    pub fn to_undirected(&self) -> UndirectedGraph {
        let map = Renumbering::new(self, |_, _| true);
        let (off, slab) = map.slab(|s| Union::new(self.out_row(s), self.in_row(s)));
        UndirectedGraph::from_sorted_parts(map.ids, &off, slab)
    }

    /// Renumbers nodes to dense ids `0..n` (in ascending order of the old
    /// ids, which the new slots follow). Returns the new graph and the
    /// old→new mapping. Useful before exporting to array-indexed tools.
    pub fn renumbered(&self) -> (DirectedGraph, IntHashTable<NodeId>) {
        let mut order: Vec<(NodeId, usize)> = (0..self.n_slots())
            .filter_map(|s| Some((self.slot_id(s)?, s)))
            .collect();
        order.sort_unstable();
        let mut mapping: IntHashTable<NodeId> = IntHashTable::with_capacity(order.len());
        let mut map = Renumbering {
            new_of: vec![DROPPED; self.n_slots()],
            slots: Vec::with_capacity(order.len()),
            ids: (0..order.len() as NodeId).collect(),
        };
        for (new, &(old, s)) in order.iter().enumerate() {
            mapping.insert(old, new as NodeId);
            map.new_of[s] = new as u32;
            map.slots.push(s);
        }
        // Renumbering by id reorders each row: sort it again.
        let sorted_slab = |row: fn(&DirectedGraph, usize) -> &[u32]| {
            let (off, mut slab) = map.slab(|s| row(self, s).iter().copied());
            let buf = Arc::get_mut(&mut slab).expect("fresh slab is unshared");
            for k in 0..map.slots.len() {
                buf[off[k]..off[k + 1]].sort_unstable();
            }
            (off, slab)
        };
        let (in_off, in_slab) = sorted_slab(|g, s| g.in_row(s));
        let (out_off, out_slab) = sorted_slab(|g, s| g.out_row(s));
        let g = DirectedGraph::from_sorted_parts(map.ids, &in_off, in_slab, &out_off, out_slab);
        (g, mapping)
    }
}

impl UndirectedGraph {
    /// The subgraph induced by `nodes` (see
    /// [`DirectedGraph::subgraph`]).
    pub fn subgraph(&self, nodes: &[NodeId]) -> UndirectedGraph {
        let keep = marked(self, nodes);
        self.copy(|s, _| keep[s])
    }

    /// The subgraph induced by the nodes `keep` accepts (see
    /// [`DirectedGraph::induced`]).
    pub fn induced(&self, keep: impl Fn(NodeId) -> bool) -> UndirectedGraph {
        self.copy(|_, id| keep(id))
    }

    /// The subgraph induced by the live slots `keep(slot, id)` accepts.
    fn copy(&self, keep: impl Fn(usize, NodeId) -> bool) -> UndirectedGraph {
        let map = Renumbering::new(self, keep);
        let (off, slab) = map.slab(|s| self.out_row(s).iter().copied());
        UndirectedGraph::from_sorted_parts(map.ids, &off, slab)
    }

    /// The graph left when the nodes in the slots `gone` are deleted, for
    /// a caller that met every edge this cuts on its way: `cuts` holds one
    /// `(slot, removed slot)` pair for each edge between a surviving node
    /// and a removed neighbour. Pairs whose first slot is itself in `gone`
    /// are ignored, so a peel may record a cut before it knows whether
    /// the neighbour lasts. Equal to [`Self::induced`] on the surviving
    /// ids — same slot order, same lists — but the cuts size every
    /// surviving row, so the rows are read once, to renumber them, and no
    /// count pass precedes the fill.
    ///
    /// # Panics
    /// When a cut names an edge the graph does not hold, names it twice,
    /// or names a neighbour that is not in `gone`, or when a surviving
    /// edge to a removed node is named by no cut.
    pub fn without(&self, gone: &[u32], cuts: &[(u32, u32)]) -> UndirectedGraph {
        const GONE: u32 = u32::MAX;
        // Per slot: `GONE`, or how many cuts name it.
        let mut cut = vec![0u32; self.n_slots()];
        for &s in gone {
            cut[s as usize] = GONE;
        }
        for &(s, r) in cuts {
            assert_eq!(cut[r as usize], GONE, "a cut names a removed neighbour");
            let n = &mut cut[s as usize];
            *n += u32::from(*n != GONE);
        }
        for (s, &n) in cut.iter().enumerate() {
            assert!(
                n == 0 || n == GONE || self.slot_id(s).is_some(),
                "a cut names a vacant slot"
            );
        }
        let map = Renumbering::new(self, |s, _| cut[s] != GONE);
        let mut off = Vec::with_capacity(map.slots.len() + 1);
        let mut total = 0usize;
        off.push(0);
        for &s in &map.slots {
            total += self
                .out_row(s)
                .len()
                .checked_sub(cut[s] as usize)
                .expect("no more cuts than neighbours");
            off.push(total);
        }
        let slab = map.fill(&off, |s| self.out_row(s).iter().copied());
        UndirectedGraph::from_sorted_parts(map.ids, &off, slab)
    }
}

/// The subgraph of `g` induced by the live slots `keep(slot, id)`
/// accepts.
fn directed_copy(g: &DirectedGraph, keep: impl Fn(usize, NodeId) -> bool) -> DirectedGraph {
    let map = Renumbering::new(g, keep);
    let (in_off, in_slab) = map.slab(|s| g.in_row(s).iter().copied());
    let (out_off, out_slab) = map.slab(|s| g.out_row(s).iter().copied());
    DirectedGraph::from_sorted_parts(map.ids, &in_off, in_slab, &out_off, out_slab)
}

/// Per slot of `g`, whether it holds one of `nodes`, found through the
/// graph's own index; ids that are no node are ignored.
fn marked<G: DirectedTopology>(g: &G, nodes: &[NodeId]) -> Vec<bool> {
    let mut keep = vec![false; g.n_slots()];
    for s in nodes.iter().filter_map(|&id| g.slot_of(id)) {
        keep[s] = true;
    }
    keep
}

/// The live slots of a graph that a filter keeps, renumbered densely in
/// slot order.
struct Renumbering {
    /// Old slot → new slot, [`DROPPED`] for a slot not kept.
    new_of: Vec<u32>,
    /// The kept old slots, by new slot.
    slots: Vec<usize>,
    /// Their ids, by new slot.
    ids: Vec<NodeId>,
}

impl Renumbering {
    /// Keeps the live slots `keep(slot, id)` accepts.
    fn new<G: DirectedTopology>(g: &G, keep: impl Fn(usize, NodeId) -> bool) -> Self {
        let mut map = Self {
            new_of: vec![DROPPED; g.n_slots()],
            slots: Vec::new(),
            ids: Vec::new(),
        };
        for s in 0..g.n_slots() {
            if let Some(id) = g.slot_id(s).filter(|&id| keep(s, id)) {
                map.new_of[s] = crate::slot_u32(map.slots.len());
                map.slots.push(s);
                map.ids.push(id);
            }
        }
        map
    }

    /// The kept neighbours of an old row, renumbered.
    fn kept<'a>(&'a self, row: impl Iterator<Item = u32> + 'a) -> impl Iterator<Item = u32> + 'a {
        row.map(|n| self.new_of[n as usize])
            .filter(|&n| n != DROPPED)
    }

    /// Every kept slot's row (`row(old slot)` yields old neighbour
    /// slots), renumbered with dropped neighbours left out, in slab form:
    /// a count pass yields the offsets, then the slab is filled in place.
    fn slab<I: Iterator<Item = u32>>(&self, row: impl Fn(usize) -> I) -> (Vec<usize>, Arc<[u32]>) {
        let mut off = Vec::with_capacity(self.slots.len() + 1);
        let mut total = 0usize;
        off.push(0);
        for &s in &self.slots {
            total += self.kept(row(s)).count();
            off.push(total);
        }
        let slab = self.fill(&off, row);
        (off, slab)
    }

    /// A fresh slab holding kept slot `k`'s renumbered row at
    /// `off[k]..off[k + 1]`.
    ///
    /// # Panics
    /// When a row keeps more or fewer neighbours than its range holds.
    fn fill<I: Iterator<Item = u32>>(&self, off: &[usize], row: impl Fn(usize) -> I) -> Arc<[u32]> {
        const SIZED: &str = "a row keeps as many neighbours as its range holds: \
                             each cut names a stored neighbour, once";
        let mut slab = new_slab(off.last().copied().unwrap_or(0));
        let buf = Arc::get_mut(&mut slab).expect("fresh slab is unshared");
        for (k, &s) in self.slots.iter().enumerate() {
            let mut kept = self.kept(row(s));
            for o in &mut buf[off[k]..off[k + 1]] {
                *o = kept.next().expect(SIZED);
            }
            assert!(kept.next().is_none(), "{SIZED}");
        }
        slab
    }
}

/// The sorted union of two ascending rows, each value once.
struct Union<'a> {
    a: &'a [u32],
    b: &'a [u32],
}

impl<'a> Union<'a> {
    fn new(a: &'a [u32], b: &'a [u32]) -> Self {
        Self { a, b }
    }
}

impl Iterator for Union<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let next = match (self.a.first(), self.b.first()) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => return None,
        };
        self.a = self.a.strip_prefix(&[next]).unwrap_or(self.a);
        self.b = self.b.strip_prefix(&[next]).unwrap_or(self.b);
        Some(next)
    }
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
        // `i64::MIN` is the index's empty-slot marker; a lookup of it must
        // not land on an empty slot and report a node.
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
    fn layout(g: &UndirectedGraph) -> Vec<(Option<NodeId>, &[u32])> {
        (0..g.n_slots())
            .map(|s| (g.slot_id(s), g.out_row(s)))
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
        assert_eq!(
            got.nbrs(9),
            &[5, 1, 9],
            "slot order: 5, 1, 9 were added in that order"
        );
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
