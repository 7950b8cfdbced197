//! The storage behind the dynamic graph types: [`Rows`] of neighbour
//! slots, one per orientation (and a weighted graph's weights, as
//! `Rows<f64>` beside its out-rows), and the [`Nodes`] side that maps ids
//! to slots.
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
type Own<T> = Option<Arc<Vec<T>>>;

/// A zero-filled adjacency slab of `len` neighbour slots, allocated once
/// in its final shared form. Producers fill it in place through
/// [`Arc::get_mut`] and hand it to a `from_sorted_parts` constructor, so
/// bulk-built adjacency is written exactly once and never copied.
pub fn new_slab(len: usize) -> Arc<[u32]> {
    std::iter::repeat_n(0, len).collect()
}

/// One orientation's rows: bulk row `s` is `slab[offs[s]..offs[s + 1]]`
/// (empty for a slot past the bulk ones), unless the overlay holds a list
/// of its own for `s`. A row is of neighbour slots, or (`Rows<f64>`) of
/// the weights beside an out-row's slots, position for position.
#[derive(Clone, Debug, Default)]
pub(crate) struct Rows<T = u32> {
    offs: Arc<[u32]>,
    slab: Arc<[T]>,
    /// Empty until this version's first edit; after it, one entry a slot.
    edited: Arc<Vec<Own<T>>>,
}

impl Rows {
    /// Bulk rows of neighbour slots: [`Rows::bulk`], each row ascending
    /// and below `off.len() - 1` (checked in debug builds).
    pub(crate) fn slots(off: &[usize], slab: Arc<[u32]>) -> Self {
        debug_assert!(off.windows(2).all(|w| {
            let row = &slab[w[0]..w[1]];
            row.is_sorted_by(|a, b| a < b) && row.iter().all(|&s| (s as usize) < off.len() - 1)
        }));
        Self::bulk(off, slab)
    }

    /// `rows`, in slot order, packed into a fresh, exactly-sized slab.
    pub(crate) fn packed<R: AsRef<[u32]>>(rows: impl Iterator<Item = R>) -> Self {
        let (mut off, mut slab) = (vec![0], Vec::new());
        for row in rows {
            slab.extend_from_slice(row.as_ref());
            off.push(slab.len());
        }
        Self::slots(&off, slab.into())
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
}

impl<T: Copy + Default> Rows<T> {
    /// Bulk rows: slot `k`'s row is `slab[off[k]..off[k + 1]]`. A slab too
    /// large for `u32` offsets is copied into lists of their own instead.
    pub(crate) fn bulk(off: &[usize], slab: Arc<[T]>) -> Self {
        debug_assert_eq!(off.last().copied(), Some(slab.len()));
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

    /// Slot `s`'s row.
    #[inline]
    pub(crate) fn row(&self, s: usize) -> &[T] {
        match self.edited.get(s) {
            Some(Some(own)) => own,
            _ => bulk_row(&self.offs, &self.slab, s),
        }
    }

    /// Slot `s`'s row to edit, in a graph of `n` slots. A row this version
    /// does not hold alone — a bulk row, or a list another version shares
    /// — is first copied, into room for one more, since an edit follows.
    pub(crate) fn to_mut(&mut self, s: usize, n: usize) -> &mut Vec<T> {
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

    /// Heap bytes: the offsets and the slab in full (dead ranges too),
    /// the overlay, and every list of its own with its header.
    pub(crate) fn mem_size(&self) -> usize {
        let own = self.edited.iter().flatten();
        let cell = std::mem::size_of::<T>();
        let own: usize = own.map(|o| OWN_HEADER + o.capacity() * cell).sum();
        self.offs.len() * SLOT_BYTES
            + self.slab.len() * cell
            + self.edited.capacity() * std::mem::size_of::<Own<T>>()
            + own
    }
}

/// Bulk row `s` of `slab` under `offs`; empty past the bulk slots.
#[inline]
fn bulk_row<'a, T>(offs: &[u32], slab: &'a [T], s: usize) -> &'a [T] {
    match offs.get(s..s + 2) {
        Some(&[lo, hi]) => &slab[lo as usize..hi as usize],
        _ => &[],
    }
}

/// A node id's slot in a bulk build — its position among the ascending
/// bulk ids — found without a hash probe: the id span is cut into about
/// one bucket per node (under two), `bucket = (id − min) >> shift`, a
/// bucket array holds the first position of every bucket, and a search
/// inside the id's bucket finishes. On an even spread a bucket holds an
/// id or two; a clustered one only lengthens the search, which the
/// conversion's `convert.rank.scanned` counter shows.
///
/// It covers the ascending prefix of the ids it is built on; the rest go
/// to the node side's overlay. The conversion ranks every neighbour
/// through it, then hands it to the graph (`from_ranked_parts`) as its id
/// index.
#[derive(Debug, Default)]
pub struct Rank {
    /// The bulk ids, by slot.
    ids: Arc<Vec<NodeId>>,
    min: NodeId,
    shift: u32,
    /// First position of each bucket, then the length of the prefix.
    bucket: Vec<u32>,
}

impl Rank {
    /// The rank index of `ids`, slot by slot.
    ///
    /// # Panics
    /// More than `u32::MAX` ids: positions are `u32` slots.
    pub fn new(mut ids: Vec<NodeId>) -> Self {
        ids.shrink_to_fit();
        let sorted = ids.windows(2).position(|w| w[0] >= w[1]);
        let sorted = &ids[..sorted.map_or(ids.len(), |i| i + 1)];
        let n = u64::from(slot_u32(sorted.len()));
        let (&min, &max) = (sorted.first().unwrap_or(&0), sorted.last().unwrap_or(&0));
        let span = max.wrapping_sub(min) as u64;
        // The narrowest shift that leaves no more buckets than the power
        // of two at or above the node count, under two buckets a node:
        // `span >> shift < 2^k` exactly when the span has at most
        // `shift + k` bits. Two or more ids make `k` at least 1, so the
        // shift stays below 64; one id makes the span 0.
        let k = n.next_power_of_two().trailing_zeros();
        let shift = (u64::BITS - span.leading_zeros()).saturating_sub(k);
        let mut bucket = vec![0u32; (span >> shift) as usize + 2];
        for &id in sorted {
            bucket[(id.wrapping_sub(min) as u64 >> shift) as usize + 1] += 1;
        }
        for b in 1..bucket.len() {
            bucket[b] += bucket[b - 1];
        }
        Self {
            ids: Arc::new(ids),
            min,
            shift,
            bucket,
        }
    }

    /// The ids it was built on, by slot.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The slot of `id` if it is one of the ascending prefix's ids, and
    /// how many ids the search compared: a bucket of one id needs no
    /// search, a few ids are scanned from the start, a binary search takes
    /// more. An id that is not there may get `None` or the slot of an id
    /// beside it, so a caller that may ask for one confirms the answer.
    #[inline(always)]
    pub fn find(&self, id: NodeId) -> (Option<u32>, u32) {
        const SCAN: usize = 8;
        let b = (id.wrapping_sub(self.min) as u64 >> self.shift) as usize;
        if b >= self.bucket.len().saturating_sub(1) {
            return (None, 0);
        }
        let (lo, hi) = (self.bucket[b] as usize, self.bucket[b + 1] as usize);
        let (at, compared) = if hi - lo == 1 {
            (lo, 1)
        } else if hi - lo <= SCAN {
            let within = self.ids[lo..hi].iter().take_while(|&&x| x < id).count();
            (lo + within, within as u32 + 1)
        } else {
            let within = self.ids[lo..hi].partition_point(|&x| x < id);
            (lo + within, usize::BITS - (hi - lo).leading_zeros())
        };
        ((at < hi).then_some(at as u32), compared)
    }
}

/// The node side of a graph: the id index, and per slot the node's id and
/// whether the slot is vacant. The index is the bulk build's [`Rank`],
/// shared by every version, plus a per-version overlay for the nodes the
/// rank does not answer for. Versions share all of it until one adds or
/// deletes a node; [`crate::NodeValues`] holds a clone.
#[derive(Clone, Debug, Default)]
pub(crate) struct Nodes {
    rank: Arc<Rank>,
    /// Per slot: the node's id (stale while the slot is vacant). The
    /// rank's own ids until a version writes one.
    ids: Arc<Vec<NodeId>>,
    edits: Arc<Edits>,
}

#[derive(Clone, Debug, Default)]
struct Edits {
    /// Id → slot of the nodes the rank does not answer for (added since
    /// the bulk build, or past its ascending prefix); none until one is.
    added: Option<IntHashTable<u32>>,
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
            ids: Arc::new(Vec::with_capacity(n)),
            edits: Arc::new(Edits {
                added: Some(IntHashTable::with_capacity(n)),
                ..Edits::default()
            }),
            ..Self::default()
        }
    }

    /// Node `k` is `rank.ids()[k]`, in slot `k`.
    ///
    /// # Panics
    /// On a duplicate id.
    pub(crate) fn bulk(rank: Rank) -> Self {
        let mut nodes = Self {
            ids: Arc::clone(&rank.ids),
            rank: Arc::new(rank),
            edits: Arc::default(),
        };
        let sorted = *nodes.rank.bucket.last().unwrap_or(&0) as usize;
        for (k, &id) in Arc::clone(&nodes.ids).iter().enumerate().skip(sorted) {
            assert!(nodes.slot(id).is_none(), "duplicate node id {id} in parts");
            nodes.added().insert(id, slot_u32(k));
        }
        nodes
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.ids.len() - self.edits.free.len()
    }

    /// Number of slots, vacant ones included.
    pub(crate) fn n_slots(&self) -> usize {
        self.ids.len()
    }

    /// The slot of node `id`: the rank's answer while that slot is live
    /// and holds `id` (which also confirms the answer), else the
    /// overlay's.
    #[inline]
    pub(crate) fn slot(&self, id: NodeId) -> Option<u32> {
        match self.rank.find(id).0 {
            Some(s) if self.id(s as usize) == Some(id) => Some(s),
            _ => self.edits.added.as_ref()?.get(id).copied(),
        }
    }

    /// The id in slot `s`, `None` when vacant.
    #[inline]
    pub(crate) fn id(&self, s: usize) -> Option<NodeId> {
        let vacant = self
            .edits
            .vacant
            .get(s / 64)
            .is_some_and(|w| w >> (s % 64) & 1 == 1);
        (!vacant).then(|| self.ids[s])
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

    /// This version's overlay, made on its first node.
    fn added(&mut self) -> &mut IntHashTable<u32> {
        let added = &mut Arc::make_mut(&mut self.edits).added;
        added.get_or_insert_with(IntHashTable::new)
    }

    /// The slot of node `id`, and whether it had to be added first. An
    /// added node takes the last slot freed, else the next one; a freed
    /// slot's rows were emptied when its node left. The slot ids are
    /// copied first, into room for 256 more (2 KiB, so the next adds do
    /// not grow them again), when another version or the rank holds them;
    /// the rank itself is never copied.
    pub(crate) fn ensure(&mut self, id: NodeId) -> (u32, bool) {
        if let Some(slot) = self.slot(id) {
            return (slot, false);
        }
        if Arc::get_mut(&mut self.ids).is_none() {
            let mut copy = Vec::with_capacity(self.ids.len() + 256);
            copy.extend_from_slice(&self.ids);
            self.ids = Arc::new(copy);
        }
        // Held once by now: never clones.
        let ids = Arc::make_mut(&mut self.ids);
        let edits = Arc::make_mut(&mut self.edits);
        let slot = match edits.free.pop() {
            Some(slot) => {
                let s = slot as usize;
                edits.vacant[s / 64] &= !(1 << (s % 64));
                ids[s] = id;
                slot
            }
            None => {
                ids.push(id);
                slot_u32(ids.len() - 1)
            }
        };
        self.added().insert(id, slot);
        (slot, true)
    }

    /// Frees the slot of node `id` and returns it; `None` if absent.
    pub(crate) fn release(&mut self, id: NodeId) -> Option<u32> {
        let slot = self.slot(id)?;
        let (edits, s) = (Arc::make_mut(&mut self.edits), slot as usize);
        if edits.vacant.len() <= s / 64 {
            edits.vacant.resize(s / 64 + 1, 0);
        }
        edits.vacant[s / 64] |= 1 << (s % 64);
        edits.free.push(slot);
        if let Some(added) = &mut edits.added {
            added.remove(id);
        }
        Some(slot)
    }

    /// Heap bytes: the rank's buckets and the ids it searches, 8 a slot
    /// for the ids when a version wrote its own, the overlay, the vacancy
    /// bitmap and the free list.
    pub(crate) fn mem_size(&self) -> usize {
        let (rank, edits) = (&self.rank, &self.edits);
        let own_ids = !Arc::ptr_eq(&self.ids, &rank.ids);
        let ids = rank.ids.capacity() + usize::from(own_ids) * self.ids.capacity();
        (rank.bucket.capacity() + edits.free.capacity()) * 4
            + edits.added.as_ref().map_or(0, IntHashTable::mem_size)
            + (ids + edits.vacant.capacity()) * 8
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
        let overlay = r.edited.capacity() * std::mem::size_of::<Own<u32>>();
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
    fn rank_finds_every_id_in_every_spread() {
        let spreads: [Vec<NodeId>; 5] = [
            vec![],
            vec![i64::MIN],
            (0..1000).map(|i| i * 3 - 900).collect(),
            vec![i64::MIN, -1, 0, 1, i64::MAX],
            (0..500).chain((0..500).map(|i| (1 << 50) + i)).collect(),
        ];
        for ids in &spreads {
            let rank = Rank::new(ids.clone());
            assert!(
                rank.bucket.len() <= 2 * ids.len() + 2,
                "under two buckets a node"
            );
            for (k, &id) in ids.iter().enumerate() {
                assert_eq!(rank.find(id).0, Some(k as u32), "rank of {id}");
                for gap in [id.wrapping_sub(1), id.wrapping_add(1)] {
                    let found = rank.find(gap).0.map(|s| ids[s as usize]);
                    assert!(ids.contains(&gap) || found != Some(gap), "{gap} is no id");
                }
            }
        }
        // The two clusters fall into few buckets, so the search compares more.
        let clustered = &spreads[4];
        let compared = |ids: &[NodeId]| -> u32 {
            let rank = Rank::new(ids.to_vec());
            ids.iter().map(|&id| rank.find(id).1).sum()
        };
        assert!(compared(clustered) > 4 * compared(&spreads[2]));
    }

    #[test]
    fn rank_covers_the_ascending_prefix_and_the_overlay_the_rest() {
        let rank = Rank::new(vec![2, 5, 9, 4, 11]);
        assert_eq!(rank.bucket.last(), Some(&3), "2, 5, 9 ascend");
        assert_ne!(rank.find(4).0.map(|s| rank.ids()[s as usize]), Some(4));
        let nodes = Nodes::bulk(rank);
        let slots: Vec<_> = [2, 5, 9, 4, 11, 3].map(|id| nodes.slot(id)).into();
        assert_eq!(slots, [Some(0), Some(1), Some(2), Some(3), Some(4), None]);
    }

    #[test]
    fn nodes_reuse_freed_slots_and_mark_them_vacant_meanwhile() {
        let mut n = Nodes::bulk(Rank::new(vec![5, i64::MIN, 7]));
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
        Nodes::bulk(Rank::new(vec![3, 4, 3]));
    }
}
