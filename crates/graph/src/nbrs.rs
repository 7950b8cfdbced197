//! The storage behind the dynamic graph types: [`Rows`] of neighbour
//! slots, one per orientation, and the [`Nodes`] side that maps ids to
//! slots.
//!
//! A neighbour is stored as the `u32` **slot** of the neighbouring node —
//! the one adjacency representation: kernels read a row of slots in
//! place, and the public id accessors map slot → id through the node
//! side at the edge of the API. A row is sorted by slot.
//!
//! Bulk loading (the sort-first table→graph conversion, `induced`, the
//! loaders) produces every node's neighbours concatenated in one slab and
//! an offset per node, and [`Rows`] keeps exactly that: 4 bytes a slot
//! and 4 a neighbour, written once and never copied. A row a version
//! edits moves to that version's overlay, as a list of its own. A clone
//! shares the slab, the offsets, the overlay and the node side — a few
//! reference-count bumps — so a version pays for what it changed: its
//! overlay (8 bytes a slot, on its first edit of an orientation) and the
//! lists it edited.

use crate::{slot_u32, NodeId};
use ringo_concurrent::IntHashTable;
use std::sync::Arc;

/// Bytes one stored neighbour costs.
const SLOT_BYTES: usize = std::mem::size_of::<u32>();

/// What a list of its own costs beside its buffer: the `Arc`'s two counts
/// and the `Vec` header.
const OWN_HEADER: usize = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Vec<u32>>();

/// An overlay entry: a slot's list of its own, shared with the versions
/// cloned since its last edit, or `None` where the bulk row stands.
type Own = Option<Arc<Vec<u32>>>;

/// A zero-filled adjacency slab of `len` neighbour slots, allocated once
/// in its final shared form. Producers fill it in place through
/// [`Arc::get_mut`] and hand it to a `from_sorted_parts` constructor, so
/// bulk-built adjacency is written exactly once and never copied.
pub fn new_slab(len: usize) -> Arc<[u32]> {
    std::iter::repeat_n(0, len).collect()
}

/// One orientation's rows: bulk row `s` is `slab[offs[s]..offs[s + 1]]`
/// (empty for a slot past the bulk ones), unless the overlay holds a list
/// of its own for `s`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Rows {
    offs: Arc<[u32]>,
    slab: Arc<[u32]>,
    /// Empty until this version's first edit; after it, one entry a slot.
    edited: Arc<Vec<Own>>,
}

impl Rows {
    /// Bulk rows: slot `k`'s row is `slab[off[k]..off[k + 1]]`, ascending
    /// and below `off.len() - 1`. A slab too large for `u32` offsets is
    /// copied into lists of their own instead.
    pub(crate) fn bulk(off: &[usize], slab: Arc<[u32]>) -> Self {
        debug_assert_eq!(off.last().copied(), Some(slab.len()));
        debug_assert!(off.windows(2).all(|w| {
            let row = &slab[w[0]..w[1]];
            row.is_sorted_by(|a, b| a < b) && row.iter().all(|&s| (s as usize) < off.len() - 1)
        }));
        if slab.len() <= u32::MAX as usize {
            let offs = off.iter().map(|&o| o as u32).collect();
            return Self {
                offs,
                slab,
                edited: Arc::default(),
            };
        }
        let own = off.windows(2);
        let own = own.map(|w| Some(Arc::new(slab[w[0]..w[1]].to_vec())));
        Self {
            edited: Arc::new(own.collect()),
            ..Self::default()
        }
    }

    /// `rows`, in slot order, packed into a fresh, exactly-sized slab.
    pub(crate) fn packed<R: AsRef<[u32]>>(rows: impl Iterator<Item = R>) -> Self {
        let (mut off, mut slab) = (vec![0], Vec::new());
        for row in rows {
            slab.extend_from_slice(row.as_ref());
            off.push(slab.len());
        }
        Self::bulk(&off, slab.into())
    }

    /// Slot `s`'s row.
    #[inline]
    pub(crate) fn row(&self, s: usize) -> &[u32] {
        match self.edited.get(s) {
            Some(Some(own)) => own,
            _ => bulk_row(&self.offs, &self.slab, s),
        }
    }

    /// Slot `s`'s row to edit, in a graph of `n` slots. A row this version
    /// does not hold alone — a bulk row, or a list another version shares
    /// — is first copied, into room for one more, since an edit follows.
    pub(crate) fn to_mut(&mut self, s: usize, n: usize) -> &mut Vec<u32> {
        let Rows { offs, slab, edited } = self;
        let edited = Arc::make_mut(edited);
        if edited.len() < n {
            edited.resize(n, None);
        }
        let own = &mut edited[s];
        if own.as_ref().is_none_or(|o| Arc::strong_count(o) > 1) {
            let shared = own.take();
            let row = shared
                .as_deref()
                .map_or(bulk_row(offs, slab, s), Vec::as_slice);
            let mut copy = Vec::with_capacity(row.len() + 1);
            copy.extend_from_slice(row);
            *own = Some(Arc::new(copy));
        }
        // Held once by now: never clones.
        Arc::make_mut(own.get_or_insert_default())
    }

    /// The `n` slots' rows rewritten as bulk rows of one fresh slab, with
    /// no overlay.
    pub(crate) fn compact(&mut self, n: usize) {
        *self = Self::packed((0..n).map(|s| self.row(s)));
    }

    /// Adds the rows of the `live` slots to `stats`.
    pub(crate) fn tally(&self, live: impl Iterator<Item = usize>, stats: &mut AdjacencyStats) {
        let overlay_shared = Arc::strong_count(&self.edited) > 1;
        for s in live {
            match self.edited.get(s) {
                Some(Some(own)) => {
                    let bytes = own.capacity() * SLOT_BYTES;
                    stats.owned_lists += 1;
                    stats.owned_bytes += bytes;
                    if overlay_shared || Arc::strong_count(own) > 1 {
                        stats.shared_lists += 1;
                        stats.shared_bytes += bytes;
                    }
                }
                _ => {
                    stats.slab_lists += 1;
                    stats.live_slab_bytes += self.row(s).len() * SLOT_BYTES;
                }
            }
        }
        stats.total_slab_bytes += self.slab.len() * SLOT_BYTES;
    }

    /// Heap bytes: the offsets and the slab in full (dead ranges too),
    /// the overlay, and every list of its own with its header.
    pub(crate) fn mem_size(&self) -> usize {
        let own = self.edited.iter().flatten();
        let own: usize = own.map(|o| OWN_HEADER + o.capacity() * SLOT_BYTES).sum();
        (self.offs.len() + self.slab.len()) * SLOT_BYTES
            + self.edited.capacity() * std::mem::size_of::<Own>()
            + own
    }
}

/// Bulk row `s` of `slab` under `offs`; empty past the bulk slots.
#[inline]
fn bulk_row<'a>(offs: &[u32], slab: &'a [u32], s: usize) -> &'a [u32] {
    match offs.get(s..s + 2) {
        Some(&[lo, hi]) => &slab[lo as usize..hi as usize],
        _ => &[],
    }
}

/// The node side of a graph: the id index, and per slot the node's id and
/// whether the slot is vacant. Versions share both until one adds or
/// deletes a node. The index is an `Arc` of its own because
/// [`crate::NodeValues`] holds it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Nodes {
    index: Arc<IntHashTable<u32>>,
    slots: Arc<Slots>,
}

#[derive(Clone, Debug, Default)]
struct Slots {
    /// Per slot: the node's id (stale while the slot is vacant).
    ids: Vec<NodeId>,
    /// Bit `s` set while slot `s` is vacant — every `i64` is a legal id,
    /// so no id value can say so. Covers the slots up to the highest one
    /// ever freed.
    vacant: Vec<u64>,
    free: Vec<u32>,
}

impl Nodes {
    /// Room for `n` nodes.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            index: Arc::new(IntHashTable::with_capacity(n)),
            slots: Arc::new(Slots {
                ids: Vec::with_capacity(n),
                ..Slots::default()
            }),
        }
    }

    /// Node `k` is `ids[k]`, in slot `k`.
    ///
    /// # Panics
    /// On a duplicate id.
    pub(crate) fn bulk(mut ids: Vec<NodeId>) -> Self {
        let mut index = IntHashTable::with_capacity(ids.len());
        for (k, &id) in ids.iter().enumerate() {
            let prev = index.insert(id, slot_u32(k));
            assert!(prev.is_none(), "duplicate node id {id} in parts");
        }
        ids.shrink_to_fit();
        Self {
            index: Arc::new(index),
            slots: Arc::new(Slots {
                ids,
                ..Slots::default()
            }),
        }
    }

    /// The id index, for [`crate::NodeValues`].
    pub(crate) fn index(&self) -> &Arc<IntHashTable<u32>> {
        &self.index
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Number of slots, vacant ones included.
    pub(crate) fn n_slots(&self) -> usize {
        self.slots.ids.len()
    }

    /// The slot of node `id`.
    #[inline]
    pub(crate) fn slot(&self, id: NodeId) -> Option<u32> {
        self.index.get(id).copied()
    }

    /// The id in slot `s`, `None` when vacant.
    #[inline]
    pub(crate) fn id(&self, s: usize) -> Option<NodeId> {
        let vacant = self
            .slots
            .vacant
            .get(s / 64)
            .is_some_and(|w| w >> (s % 64) & 1 == 1);
        (!vacant).then(|| self.slots.ids[s])
    }

    /// The live slots and their ids, ascending by slot.
    pub(crate) fn live(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        (0..self.n_slots()).filter_map(|s| Some((s, self.id(s)?)))
    }

    /// The slots of `ids`, ascending.
    ///
    /// # Panics
    /// When an id is not a node.
    pub(crate) fn slots_of(&self, ids: &[NodeId]) -> Vec<u32> {
        let slot = |&id| {
            self.slot(id)
                .unwrap_or_else(|| panic!("a part names node {id}"))
        };
        let mut row: Vec<u32> = ids.iter().map(slot).collect();
        row.sort_unstable();
        row
    }

    /// The slot of node `id`, and whether it had to be added first. An
    /// added node takes the last slot freed, else the next one; a freed
    /// slot's rows were emptied when its node left.
    pub(crate) fn ensure(&mut self, id: NodeId) -> (u32, bool) {
        if let Some(slot) = self.slot(id) {
            return (slot, false);
        }
        let slots = Arc::make_mut(&mut self.slots);
        let slot = match slots.free.pop() {
            Some(slot) => {
                let s = slot as usize;
                slots.vacant[s / 64] &= !(1 << (s % 64));
                slots.ids[s] = id;
                slot
            }
            None => {
                slots.ids.push(id);
                slot_u32(slots.ids.len() - 1)
            }
        };
        Arc::make_mut(&mut self.index).insert(id, slot);
        (slot, true)
    }

    /// Frees the slot of node `id` and returns it; `None` if absent.
    pub(crate) fn release(&mut self, id: NodeId) -> Option<u32> {
        let slot = self.slot(id)?;
        let (slots, s) = (Arc::make_mut(&mut self.slots), slot as usize);
        if slots.vacant.len() <= s / 64 {
            slots.vacant.resize(s / 64 + 1, 0);
        }
        slots.vacant[s / 64] |= 1 << (s % 64);
        slots.free.push(slot);
        Arc::make_mut(&mut self.index).remove(id);
        Some(slot)
    }

    /// Heap bytes: the index, 8 a slot for the ids, the vacancy bitmap
    /// and the free list.
    pub(crate) fn mem_size(&self) -> usize {
        let Slots { ids, vacant, free } = &*self.slots;
        self.index.mem_size() + (ids.capacity() + vacant.capacity()) * 8 + free.capacity() * 4
    }
}

/// Adjacency-storage accounting for one graph: how many rows are bulk
/// rows of a slab vs lists of their own, and how much slab memory is
/// still referenced vs retained. Produced by the graphs'
/// `adjacency_stats`; `dead_slab_bytes` is what their `compact` reclaims.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdjacencyStats {
    /// Rows read from a slab.
    pub slab_lists: usize,
    /// Rows that are lists of their own (materialized by an edit).
    pub owned_lists: usize,
    /// Bytes of slab rows still read by a live slot.
    pub live_slab_bytes: usize,
    /// Full allocated bytes of every slab kept alive.
    pub total_slab_bytes: usize,
    /// Bytes held by lists of their own (capacity, not length).
    pub owned_bytes: usize,
    /// Of the owned lists, those this version shares with another
    /// version (cloned since the list's last edit): each is counted in
    /// every version that holds it.
    pub shared_lists: usize,
    /// Bytes of the shared owned lists (capacity, not length).
    pub shared_bytes: usize,
}

impl AdjacencyStats {
    /// Slab bytes kept alive but read by no live slot — the leak
    /// compaction exists to reclaim.
    pub fn dead_slab_bytes(&self) -> usize {
        self.total_slab_bytes - self.live_slab_bytes
    }

    /// Total adjacency heap retention: every live slab in full, plus
    /// owned-list capacity.
    pub fn footprint_bytes(&self) -> usize {
        self.total_slab_bytes + self.owned_bytes
    }
}

/// What one `compact()` call did: adjacency accounting immediately
/// before and after the rewrite.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactStats {
    /// Accounting before the rewrite.
    pub before: AdjacencyStats,
    /// Accounting after (one exact slab, no owned lists, no dead bytes).
    pub after: AdjacencyStats,
}

impl CompactStats {
    /// Net adjacency bytes released by the rewrite (zero when the graph
    /// was already compact).
    pub fn reclaimed_bytes(&self) -> usize {
        self.before
            .footprint_bytes()
            .saturating_sub(self.after.footprint_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(lists: &[&[u32]]) -> Rows {
        Rows::packed(lists.iter())
    }

    fn all(r: &Rows, n: usize) -> Vec<Vec<u32>> {
        (0..n).map(|s| r.row(s).to_vec()).collect()
    }

    fn stats(r: &Rows, n: usize) -> AdjacencyStats {
        let mut stats = AdjacencyStats::default();
        r.tally(0..n, &mut stats);
        stats
    }

    #[test]
    fn slab_view_reads_like_owned() {
        let mut r = Rows::bulk(&[0, 1, 3, 3], Arc::from([1u32, 0, 2]));
        assert_eq!(all(&r, 5), [vec![1], vec![0, 2], vec![], vec![], vec![]]);
        let bulk = all(&r, 3);
        r.to_mut(1, 3);
        assert_eq!(all(&r, 3), bulk, "an own copy reads as its bulk row did");
        assert_eq!((stats(&r, 3).slab_lists, stats(&r, 3).owned_lists), (2, 1));
    }

    #[test]
    fn to_mut_copies_on_write_without_touching_slab() {
        let mut a = rows(&[&[1], &[0, 2], &[1]]);
        let b = a.clone();
        a.to_mut(1, 3).push(9);
        assert_eq!(all(&a, 3), [vec![1], vec![0, 2, 9], vec![1]]);
        assert_eq!(
            all(&b, 3),
            [vec![1], vec![0, 2], vec![1]],
            "clone untouched"
        );
        assert_eq!(&a.slab[..], &[1, 0, 2, 1], "slab itself untouched");
        assert_eq!(a.edited.len(), 3, "the overlay covers every slot");
        assert_eq!(a.to_mut(1, 3).capacity(), 3, "a copy holds len + 1");
    }

    #[test]
    fn to_mut_edits_a_list_held_once_and_copies_a_shared_one() {
        let mut a = rows(&[&[1], &[0]]);
        a.to_mut(0, 2).push(1);
        let at = a.row(0).as_ptr();
        a.to_mut(0, 2).pop();
        assert_eq!(a.row(0).as_ptr(), at, "held once: edited in place");
        let mut b = a.clone();
        assert!(
            Arc::ptr_eq(&a.edited, &b.edited),
            "a clone shares the overlay"
        );
        assert_eq!(stats(&a, 2).shared_lists, 1);
        b.to_mut(0, 2).push(0);
        assert_ne!(b.row(0).as_ptr(), at, "the first edit copies");
        assert_eq!((a.row(0), b.row(0)), (&[1][..], &[1, 0][..]));
        assert_eq!(
            (stats(&a, 2).shared_lists, stats(&b, 2).owned_lists),
            (0, 1)
        );
        let at = b.row(0).as_ptr();
        b.to_mut(0, 2).pop();
        assert_eq!(b.row(0).as_ptr(), at, "the copy is this version's alone");
    }

    #[test]
    fn empty_lists_are_views_of_the_empty_slab() {
        let mut r = Rows::default();
        assert_eq!((all(&r, 2), r.mem_size()), (vec![vec![], vec![]], 0));
        r.to_mut(2, 3).push(0);
        assert_eq!(all(&r, 4), [vec![], vec![], vec![0], vec![]]);
        let s = stats(&r, 3);
        assert_eq!((s.slab_lists, s.owned_lists, s.total_slab_bytes), (2, 1, 0));
    }

    #[test]
    fn heap_bytes_charges_slab_ranges() {
        let mut r = rows(&[&[1, 2], &[0], &[0]]);
        assert_eq!(r.mem_size(), (4 + 4) * SLOT_BYTES, "offsets and slab");
        r.to_mut(0, 3).clear();
        let own = OWN_HEADER + 3 * SLOT_BYTES;
        let overlay = r.edited.capacity() * std::mem::size_of::<Own>();
        assert!(r.edited.capacity() >= 3);
        assert_eq!(
            r.mem_size(),
            (4 + 4) * SLOT_BYTES + overlay + own,
            "dead range too"
        );
    }

    #[test]
    fn adjacency_stats_see_dead_ranges() {
        let mut r = rows(&[&[1, 2], &[0], &[0]]);
        std::mem::take(r.to_mut(0, 3));
        let s = stats(&r, 3);
        assert_eq!(
            (s.live_slab_bytes, s.total_slab_bytes),
            (2 * SLOT_BYTES, 4 * SLOT_BYTES)
        );
        assert_eq!(s.dead_slab_bytes(), 2 * SLOT_BYTES);
        let mut live_only = AdjacencyStats::default();
        r.tally([1].into_iter(), &mut live_only);
        assert_eq!(
            live_only.dead_slab_bytes(),
            3 * SLOT_BYTES,
            "slots not live"
        );
    }

    #[test]
    fn compact_rewrites_views_and_owned_into_one_slab() {
        let mut r = rows(&[&[1, 2], &[0], &[0]]);
        std::mem::take(r.to_mut(0, 3));
        r.to_mut(2, 3).push(2);
        let old = Arc::downgrade(&r.slab);
        let want = all(&r, 3);
        r.compact(3);
        assert_eq!(all(&r, 3), want);
        assert!(r.edited.is_empty(), "no overlay");
        assert_eq!(old.upgrade(), None, "the old slab is freed");
        assert_eq!(&r.slab[..], &[0, 0, 2], "fresh slab is exactly sized");
        let s = stats(&r, 3);
        assert_eq!((s.owned_lists, s.dead_slab_bytes()), (0, 0));
    }

    #[test]
    fn compact_handles_empty_input_and_empty_lists() {
        let mut r = Rows::default();
        r.compact(0);
        assert_eq!(all(&r, 1), [vec![]]);
        r.to_mut(1, 2).push(1);
        r.compact(2);
        assert_eq!(all(&r, 2), [vec![], vec![1]]);
        assert_eq!(&r.offs[..], &[0, 0, 1]);
    }

    #[test]
    fn nodes_reuse_freed_slots_and_mark_them_vacant_meanwhile() {
        let mut n = Nodes::bulk(vec![5, i64::MIN, 7]);
        assert_eq!(n.ensure(i64::MIN), (1, false));
        assert_eq!(n.release(i64::MIN), Some(1));
        assert_eq!(n.release(i64::MIN), None);
        assert_eq!((n.len(), n.id(1)), (2, None));
        assert_eq!(n.live().collect::<Vec<_>>(), [(0, 5), (2, 7)]);
        let copy = n.clone();
        assert_eq!(n.ensure(9), (1, true));
        assert_eq!(n.ensure(10), (3, true));
        assert_eq!(n.live().map(|(s, _)| s).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(
            (copy.id(1), copy.len()),
            (None, 2),
            "the clone kept its side"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate node id 3")]
    fn bulk_nodes_refuse_a_duplicate() {
        Nodes::bulk(vec![3, 4, 3]);
    }
}
