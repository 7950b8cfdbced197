//! Per-node kernel results as columns on the graph's own id index.

use crate::nbrs::Nodes;
use crate::topology::DirectedTopology;
use crate::NodeId;

/// Marks a slot with no value in [`NodeValues`]' slot → position array.
const ABSENT: u32 = u32::MAX;

/// One value per node, for the nodes a kernel produced a value for —
/// BFS distances, tree parents, component labels, core numbers.
///
/// The answer is two columns in **ascending slot order**: [`Self::ids`]
/// and [`Self::values`], position for position. [`Self::get`] resolves an
/// id through the node side of the graph version that produced the
/// result (shared, not copied: a few reference-count bumps) and then a
/// slot-indexed position array, so a lookup costs what `has_node` does.
///
/// A result therefore keeps its version's node side alive. The graph is
/// unaffected until it adds or deletes a node while the result is held:
/// that edit then copies what it writes first — the slot ids and the
/// overlay, never the bulk [`crate::Rank`] — as it would for a clone.
///
/// Built by [`DirectedTopology::node_values`]; the graph is the only
/// producer, so the index stays private to it.
#[derive(Clone)]
pub struct NodeValues<T> {
    nodes: Nodes,
    /// Slot → position in `ids`/`values`, [`ABSENT`] where no value.
    pos: Vec<u32>,
    ids: Vec<NodeId>,
    values: Vec<T>,
}

impl<T> NodeValues<T> {
    /// Packs `per_slot` (slot `s` holds the value for slot `s`; slots past
    /// its end have none): a slot is kept when `keep` accepts its value and
    /// the slot is live. The kept values are compacted in place — the
    /// kernel's slot array becomes the value column — and only the ids are
    /// gathered, into a column reserved for `count` entries.
    pub(crate) fn pack<G: DirectedTopology>(
        nodes: &Nodes,
        g: &G,
        mut per_slot: Vec<T>,
        count: usize,
        keep: impl Fn(&T) -> bool,
    ) -> Self {
        assert!(
            per_slot.len() <= g.n_slots(),
            "{} values for a graph of {} slots",
            per_slot.len(),
            g.n_slots()
        );
        let mut pos = vec![ABSENT; per_slot.len()];
        let mut ids = Vec::with_capacity(count);
        for s in 0..per_slot.len() {
            if !keep(&per_slot[s]) {
                continue;
            }
            let Some(id) = g.slot_id(s) else { continue };
            let k = ids.len();
            pos[s] = k as u32;
            ids.push(id);
            // `k <= s`: every slot before `k` is already final.
            per_slot.swap(k, s);
        }
        per_slot.truncate(ids.len());
        Self {
            nodes: nodes.clone(),
            pos,
            ids,
            values: per_slot,
        }
    }

    /// Number of nodes with a value.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no node has a value.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The nodes with a value, in ascending slot order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The values, position for position with [`Self::ids`].
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The value of node `id`, if it has one.
    pub fn get(&self, id: NodeId) -> Option<&T> {
        let slot = self.nodes.slot(id)? as usize;
        match self.pos.get(slot) {
            Some(&p) if p != ABSENT => Some(&self.values[p as usize]),
            _ => None,
        }
    }

    /// True when node `id` has a value.
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// `(id, &value)` pairs in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> + '_ {
        self.ids.iter().copied().zip(&self.values)
    }

    /// The same nodes with each value mapped through `f`.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> NodeValues<U> {
        NodeValues {
            nodes: self.nodes,
            pos: self.pos,
            ids: self.ids,
            values: self.values.into_iter().map(f).collect(),
        }
    }
}

impl<T: PartialEq> PartialEq for NodeValues<T> {
    /// Equal when the `(id, value)` sequences are.
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids && self.values == other.values
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for NodeValues<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{DirectedGraph, DirectedTopology};

    #[test]
    fn columns_are_in_slot_order_and_lookups_follow_the_index() {
        let mut g = DirectedGraph::new();
        for id in [30, 10, 20, 40] {
            g.add_node(id);
        }
        g.del_node(20); // slot 2 vacant
        let per_slot = vec![3u32, 1, 2, u32::MAX];
        let v = g.node_values(per_slot, 2, |&x| x != u32::MAX);
        assert_eq!(v.ids(), &[30, 10]);
        assert_eq!(v.values(), &[3, 1]);
        assert_eq!(v.get(10), Some(&1));
        assert_eq!(v.get(20), None, "vacant slot");
        assert_eq!(v.get(40), None, "not kept");
        assert_eq!(v.get(99), None, "not a node");
        assert!(v.contains(30) && !v.contains(40));
        assert_eq!(v.iter().collect::<Vec<_>>(), [(30, &3), (10, &1)]);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn a_short_slot_array_leaves_the_rest_absent() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        let v = g.node_values(Vec::<u32>::new(), 0, |_| true);
        assert!(v.is_empty());
        assert_eq!(v.get(1), None);
        let w = g.node_values(vec![7u32], 1, |_| true).map(i64::from);
        assert_eq!(w.get(1), Some(&7));
        assert_eq!(w.get(2), None);
    }

    #[test]
    fn a_reused_slot_answers_for_its_new_id() {
        let mut g = DirectedGraph::new();
        g.add_node(1);
        g.add_node(2);
        g.del_node(1);
        g.add_node(9); // takes slot 0
        let v = g.node_values(vec![5u32, 6], 2, |_| true);
        assert_eq!(v.ids(), &[9, 2]);
        assert_eq!(v.get(9), Some(&5));
        assert_eq!(v.get(1), None);
    }
}
