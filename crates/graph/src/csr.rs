//! Static Compressed Sparse Row baseline.
//!
//! The paper (§2.2) rejects CSR because "graph updates cause prohibitive
//! maintenance costs of the single big edge vector (e.g., deleting a single
//! edge requires time linear in the total number of edges in the graph)".
//! This module implements exactly that representation so the ablation
//! benchmarks can measure both sides of the trade-off: CSR's contiguous
//! traversal vs its `O(E)` single-edge deletion.

use crate::traits::DirectedTopology;
use crate::{slot_u32, NodeId};
use ringo_concurrent::{num_threads, radix_sort_by_u64_key, IntHashTable};

/// An immutable-topology directed graph in Compressed Sparse Row form,
/// with both out- and in-adjacency stored contiguously.
///
/// Node ids may be arbitrary; they are mapped to dense slots at build time.
/// The only mutation offered is [`CsrGraph::del_edge`], implemented the way
/// a CSR must: by shifting the tail of the big edge vector — deliberately
/// `O(E)`, to serve as the paper's counterexample.
#[derive(Clone, Debug, Default)]
pub struct CsrGraph {
    index: IntHashTable<u32>,
    ids: Vec<NodeId>,
    out_off: Vec<usize>,
    out_nbrs: Vec<NodeId>,
    in_off: Vec<usize>,
    in_nbrs: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list. Duplicate edges are
    /// deduplicated; adjacency is sorted.
    pub fn from_edges(edges: &[(NodeId, NodeId)]) -> Self {
        // Collect distinct node ids in first-seen order, then sort for
        // deterministic slot assignment.
        let mut ids: Vec<NodeId> = Vec::with_capacity(edges.len() / 4 + 4);
        let mut index: IntHashTable<u32> = IntHashTable::with_capacity(edges.len() / 4 + 4);
        for &(s, d) in edges {
            for v in [s, d] {
                if !index.contains(v) {
                    index.insert(v, 0);
                    ids.push(v);
                }
            }
        }
        ids.sort_unstable();
        for (slot, id) in ids.iter().enumerate() {
            index.insert(*id, slot_u32(slot));
        }
        let n = ids.len();

        // Slot pairs pack into one u64 whose order equals the tuple order,
        // so construction rides the parallel radix sorter; small-id graphs
        // skip the constant high-byte passes entirely.
        let threads = num_threads();
        let pack = |&(s, d): &(u32, u32)| ((s as u64) << 32) | d as u64;
        let mut pairs: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(s, d)| (*index.get(s).unwrap(), *index.get(d).unwrap()))
            .collect();
        radix_sort_by_u64_key(&mut pairs, threads, pack);
        pairs.dedup();

        let mut out_off = vec![0usize; n + 1];
        for &(s, _) in &pairs {
            out_off[s as usize + 1] += 1;
        }
        for i in 0..n {
            out_off[i + 1] += out_off[i];
        }
        let mut out_nbrs = vec![0 as NodeId; pairs.len()];
        {
            let mut cursor = out_off.clone();
            for &(s, d) in &pairs {
                out_nbrs[cursor[s as usize]] = ids[d as usize];
                cursor[s as usize] += 1;
            }
        }

        let mut rev: Vec<(u32, u32)> = pairs.iter().map(|&(s, d)| (d, s)).collect();
        radix_sort_by_u64_key(&mut rev, threads, pack);
        let mut in_off = vec![0usize; n + 1];
        for &(d, _) in &rev {
            in_off[d as usize + 1] += 1;
        }
        for i in 0..n {
            in_off[i + 1] += in_off[i];
        }
        let mut in_nbrs = vec![0 as NodeId; rev.len()];
        {
            let mut cursor = in_off.clone();
            for &(d, s) in &rev {
                in_nbrs[cursor[d as usize]] = ids[s as usize];
                cursor[d as usize] += 1;
            }
        }

        Self {
            index,
            ids,
            out_off,
            out_nbrs,
            in_off,
            in_nbrs,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out_nbrs.len()
    }

    /// True when `id` is a node of the graph.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.index.contains(id)
    }

    /// True when the edge `src -> dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        match self.index.get(src) {
            Some(&s) => self
                .out_nbrs_of_slot(s as usize)
                .binary_search(&dst)
                .is_ok(),
            None => false,
        }
    }

    /// Sorted out-neighbors of `id` (empty slice if absent).
    pub fn out_nbrs(&self, id: NodeId) -> &[NodeId] {
        match self.index.get(id) {
            Some(&s) => self.out_nbrs_of_slot(s as usize),
            None => &[],
        }
    }

    /// Sorted in-neighbors of `id` (empty slice if absent).
    pub fn in_nbrs(&self, id: NodeId) -> &[NodeId] {
        match self.index.get(id) {
            Some(&s) => self.in_nbrs_of_slot(s as usize),
            None => &[],
        }
    }

    /// Deletes the edge `src -> dst` by shifting the tails of both big edge
    /// vectors: **O(E)** on purpose. Returns `false` if the edge is absent.
    pub fn del_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let (s, d) = match (self.index.get(src), self.index.get(dst)) {
            (Some(&s), Some(&d)) => (s as usize, d as usize),
            _ => return false,
        };
        let rel = match self.out_nbrs[self.out_off[s]..self.out_off[s + 1]].binary_search(&dst) {
            Ok(p) => p,
            Err(_) => return false,
        };
        let pos = self.out_off[s] + rel;
        self.out_nbrs.remove(pos); // shifts the tail: O(E)
        for off in self.out_off[s + 1..].iter_mut() {
            *off -= 1;
        }
        let rel = self.in_nbrs[self.in_off[d]..self.in_off[d + 1]]
            .binary_search(&src)
            .expect("in/out out of sync");
        let pos = self.in_off[d] + rel;
        self.in_nbrs.remove(pos);
        for off in self.in_off[d + 1..].iter_mut() {
            *off -= 1;
        }
        true
    }

    /// Iterates over node ids in slot order (ascending id).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().copied()
    }

    /// Approximate heap footprint in bytes.
    pub fn mem_size(&self) -> usize {
        self.index.mem_size()
            + self.ids.capacity() * 8
            + (self.out_off.capacity() + self.in_off.capacity()) * 8
            + (self.out_nbrs.capacity() + self.in_nbrs.capacity()) * 8
    }
}

impl DirectedTopology for CsrGraph {
    fn n_slots(&self) -> usize {
        self.ids.len()
    }

    fn slot_id(&self, slot: usize) -> Option<NodeId> {
        self.ids.get(slot).copied()
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.index.get(id).map(|s| *s as usize)
    }

    fn out_nbrs_of_slot(&self, slot: usize) -> &[NodeId] {
        &self.out_nbrs[self.out_off[slot]..self.out_off[slot + 1]]
    }

    fn in_nbrs_of_slot(&self, slot: usize) -> &[NodeId] {
        &self.in_nbrs[self.in_off[slot]..self.in_off[slot + 1]]
    }

    fn node_count(&self) -> usize {
        self.ids.len()
    }

    fn edge_count(&self) -> usize {
        self.out_nbrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectedGraph;

    fn sample_edges() -> Vec<(NodeId, NodeId)> {
        vec![(10, 20), (10, 30), (20, 30), (30, 10), (30, 30), (10, 20)]
    }

    #[test]
    fn from_edges_dedups_and_sorts() {
        let g = CsrGraph::from_edges(&sample_edges());
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.out_nbrs(10), &[20, 30]);
        assert_eq!(g.out_nbrs(30), &[10, 30]);
        assert_eq!(g.in_nbrs(30), &[10, 20, 30]);
        assert!(g.has_edge(30, 30));
        assert!(!g.has_edge(20, 10));
    }

    #[test]
    fn matches_dynamic_graph_on_same_edges() {
        let edges = sample_edges();
        let csr = CsrGraph::from_edges(&edges);
        let mut dynamic = DirectedGraph::new();
        for &(s, d) in &edges {
            dynamic.add_edge(s, d);
        }
        assert_eq!(csr.node_count(), dynamic.node_count());
        assert_eq!(csr.edge_count(), dynamic.edge_count());
        for id in dynamic.node_ids() {
            assert_eq!(csr.out_nbrs(id), dynamic.out_nbrs(id));
            assert_eq!(csr.in_nbrs(id), dynamic.in_nbrs(id));
        }
    }

    #[test]
    fn del_edge_shifts_correctly() {
        let mut g = CsrGraph::from_edges(&sample_edges());
        assert!(g.del_edge(10, 20));
        assert!(!g.del_edge(10, 20));
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_nbrs(10), &[30]);
        assert!(g.in_nbrs(20).is_empty());
        // Other adjacency untouched.
        assert_eq!(g.out_nbrs(30), &[10, 30]);
        assert_eq!(g.in_nbrs(30), &[10, 20, 30]);
    }

    #[test]
    fn empty_and_missing() {
        let g = CsrGraph::from_edges(&[]);
        assert_eq!(g.node_count(), 0);
        assert!(!g.has_node(1));
        assert!(g.out_nbrs(1).is_empty());
        let mut g = CsrGraph::from_edges(&[(1, 2)]);
        assert!(!g.del_edge(1, 99));
        assert!(!g.del_edge(99, 2));
    }

    #[test]
    fn slots_are_ascending_ids() {
        let g = CsrGraph::from_edges(&[(5, 1), (3, 5)]);
        let ids: Vec<_> = g.node_ids().collect();
        assert_eq!(ids, vec![1, 3, 5]);
        for (slot, id) in ids.iter().enumerate() {
            assert_eq!(g.slot_of(*id), Some(slot));
            assert_eq!(g.slot_id(slot), Some(*id));
        }
    }
}
