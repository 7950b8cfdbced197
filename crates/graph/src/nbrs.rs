//! Copy-on-write adjacency storage shared by the dynamic graph types.
//!
//! A neighbour is stored as the `u32` **slot** of the neighbouring node —
//! the one adjacency representation: kernels read a row of slots in
//! place, and the public id accessors map slot → id through the node
//! table at the edge of the API. A list is sorted by slot.
//!
//! Bulk loading (the sort-first table→graph conversion) produces every
//! node's neighbors concatenated in one big slab. Copying each node's
//! slice into its own `Vec` at install time would re-touch the whole
//! adjacency just to change its ownership — for a million-edge graph
//! that copy costs more than the fill itself. Instead a [`NbrList`] can
//! *borrow* its range of the shared slab (an `Arc<[u32]>` kept alive by
//! every node that references it) and only materializes a list of its
//! own the first time that node's adjacency is mutated. Read paths see
//! a `&[u32]` either way via `Deref`, so lookups and iteration are
//! identical for both representations.
//!
//! A list of its own is an `Arc<Vec<u32>>`, so a graph clone shares it
//! too and a version copies a list only on its first edit of it. An empty
//! list is a view of the empty slab and allocates nothing.

use std::ops::Deref;
use std::sync::Arc;

/// Bytes one stored neighbour costs.
const SLOT_BYTES: usize = std::mem::size_of::<u32>();

/// A zero-filled adjacency slab of `len` neighbour slots, allocated once
/// in its final shared form. Producers fill it in place through
/// [`Arc::get_mut`] and hand it to a `from_sorted_parts` constructor, so
/// bulk-built adjacency is written exactly once and never copied.
pub fn new_slab(len: usize) -> Arc<[u32]> {
    std::iter::repeat_n(0, len).collect()
}

/// One node's neighbour slots, ascending: either a list of its own (shared
/// with the graph versions cloned since its last edit) or a range of a
/// bulk-load slab shared with the other nodes built in the same batch.
#[derive(Clone, Debug)]
pub(crate) enum NbrList {
    /// This node's storage; every mutation path lands here.
    Owned(Arc<Vec<u32>>),
    /// `buf[lo..hi]`, copy-on-write. Bounds are `u32` to keep the enum
    /// small; [`NbrList::slab`] falls back to owning when a slab is too
    /// large to index with 32 bits.
    Slab { buf: Arc<[u32]>, lo: u32, hi: u32 },
}

impl Default for NbrList {
    fn default() -> Self {
        // `Arc::<[_]>::default` points at a static: no allocation.
        NbrList::slab(&Arc::default(), 0, 0)
    }
}

impl Deref for NbrList {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        match self {
            NbrList::Owned(v) => v,
            NbrList::Slab { buf, lo, hi } => &buf[*lo as usize..*hi as usize],
        }
    }
}

impl From<Vec<u32>> for NbrList {
    fn from(v: Vec<u32>) -> Self {
        if v.is_empty() {
            return NbrList::default();
        }
        NbrList::Owned(Arc::new(v))
    }
}

impl NbrList {
    /// A view of `buf[lo..hi]`. Falls back to an owned copy in the
    /// (pathological) case of a slab beyond `u32` indexing.
    pub(crate) fn slab(buf: &Arc<[u32]>, lo: usize, hi: usize) -> Self {
        if hi <= u32::MAX as usize {
            NbrList::Slab {
                buf: Arc::clone(buf),
                lo: lo as u32,
                hi: hi as u32,
            }
        } else {
            buf[lo..hi].to_vec().into()
        }
    }

    /// Mutable access. A list this version holds alone is edited in
    /// place; a slab view or a list another version shares is first
    /// copied — this node's neighbors only, into room for one more, since
    /// an edit follows.
    pub(crate) fn to_mut(&mut self) -> &mut Vec<u32> {
        if !matches!(self, NbrList::Owned(v) if Arc::strong_count(v) == 1) {
            let mut v = Vec::with_capacity(self.len() + 1);
            v.extend_from_slice(self);
            *self = NbrList::Owned(Arc::new(v));
        }
        match self {
            NbrList::Owned(v) => Arc::make_mut(v), // held once: never clones
            NbrList::Slab { .. } => unreachable!("just converted"),
        }
    }

    /// Heap bytes attributable to this list. Slab ranges partition their
    /// slab, so charging each node its own range sums to the slab's true
    /// footprint (the `Arc` header is ignored as per-batch constant). A
    /// list of its own is charged in full to every version that holds it.
    ///
    /// After mutations this *understates* retention: a view's dead
    /// sibling ranges keep the whole slab alive but are charged to
    /// nobody. [`AdjacencyStats`] reports the honest number;
    /// [`NbrList::compact`] reclaims the difference.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            NbrList::Owned(v) => v.capacity() * SLOT_BYTES,
            NbrList::Slab { lo, hi, .. } => (hi - lo) as usize * SLOT_BYTES,
        }
    }

    /// Identity and full length of the backing slab, if any:
    /// `(address, slab_len)` — the key [`AdjacencyStats`] groups by.
    pub(crate) fn slab_id(&self) -> Option<(usize, usize)> {
        match self {
            NbrList::Owned(_) => None,
            NbrList::Slab { buf, .. } => Some((buf.as_ptr() as usize, buf.len())),
        }
    }

    /// Accumulates this list into `stats`, tracking distinct slabs in
    /// `slabs` (address → full slab length).
    pub(crate) fn accumulate(
        &self,
        stats: &mut AdjacencyStats,
        slabs: &mut std::collections::HashMap<usize, usize>,
    ) {
        match self.slab_id() {
            Some((addr, slab_len)) => {
                stats.slab_lists += 1;
                stats.live_slab_bytes += self.len() * SLOT_BYTES;
                slabs.insert(addr, slab_len);
            }
            None => {
                stats.owned_lists += 1;
                stats.owned_bytes += self.heap_bytes();
                if matches!(self, NbrList::Owned(v) if Arc::strong_count(v) > 1) {
                    stats.shared_lists += 1;
                    stats.shared_bytes += self.heap_bytes();
                }
            }
        }
    }

    /// The long-pending compaction: rewrites every list in `lists` —
    /// surviving slab views *and* privately-owned vectors — into one
    /// fresh, exactly-sized shared slab and rebinds each list as a view
    /// into it.
    ///
    /// Batch granularity is the whole point: a slab is only freed when
    /// its last view drops, so compacting lists one at a time could
    /// never release a dead range. Rewriting the full surviving set is
    /// what lets the old slabs (dead ranges included) go, and the result
    /// is a brand-new immutable slab — which is exactly the shape a
    /// copy-on-write version publish wants, so graph compaction rides
    /// the epoch machinery (see the core crate's `Catalog`).
    pub(crate) fn compact(lists: &mut [&mut NbrList]) {
        let total: usize = lists.iter().map(|l| l.len()).sum();
        let mut slab = Vec::with_capacity(total);
        let mut bounds = Vec::with_capacity(lists.len());
        for list in lists.iter() {
            let lo = slab.len();
            slab.extend_from_slice(list);
            bounds.push(lo);
        }
        let buf: Arc<[u32]> = Arc::from(slab);
        for (list, lo) in lists.iter_mut().zip(bounds) {
            let hi = lo + list.len();
            **list = NbrList::slab(&buf, lo, hi);
        }
    }
}

/// Adjacency-storage accounting for one graph: how many lists are slab
/// views vs privately owned, and how much slab memory is still
/// referenced vs retained. Produced by the graphs' `adjacency_stats`;
/// `dead_slab_bytes` is what their `compact` reclaims.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdjacencyStats {
    /// Lists that are copy-on-write views into a shared slab.
    pub slab_lists: usize,
    /// Lists that own their storage (materialized by mutation).
    pub owned_lists: usize,
    /// Bytes of slab ranges still referenced by a live view.
    pub live_slab_bytes: usize,
    /// Full allocated bytes of every distinct slab kept alive.
    pub total_slab_bytes: usize,
    /// Bytes held by privately-owned lists (capacity, not length).
    pub owned_bytes: usize,
    /// Of the owned lists, those this version shares with another
    /// version (cloned since the list's last edit): each is counted in
    /// every version that holds it.
    pub shared_lists: usize,
    /// Bytes of the shared owned lists (capacity, not length).
    pub shared_bytes: usize,
}

impl AdjacencyStats {
    /// Slab bytes kept alive but referenced by no live view — the leak
    /// compaction exists to reclaim.
    pub fn dead_slab_bytes(&self) -> usize {
        self.total_slab_bytes - self.live_slab_bytes
    }

    /// Total adjacency heap retention: every live slab in full, plus
    /// owned-vector capacity.
    pub fn footprint_bytes(&self) -> usize {
        self.total_slab_bytes + self.owned_bytes
    }

    /// Folds the distinct-slab map built via [`NbrList::accumulate`]
    /// into `total_slab_bytes`.
    pub(crate) fn finish(mut self, slabs: &std::collections::HashMap<usize, usize>) -> Self {
        self.total_slab_bytes = slabs.values().map(|len| len * SLOT_BYTES).sum();
        self
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

    #[test]
    fn slab_view_reads_like_owned() {
        let buf: Arc<[u32]> = Arc::from(vec![1u32, 2, 3, 4, 5]);
        let view = NbrList::slab(&buf, 1, 4);
        assert_eq!(&*view, &[2, 3, 4]);
        assert_eq!(view.len(), 3);
        assert!(view.binary_search(&3).is_ok());
        let owned = NbrList::from(vec![2u32, 3, 4]);
        assert_eq!(&*view, &*owned);
    }

    #[test]
    fn to_mut_copies_on_write_without_touching_slab() {
        let buf: Arc<[u32]> = Arc::from(vec![10u32, 20, 30]);
        let mut a = NbrList::slab(&buf, 0, 2);
        let b = NbrList::slab(&buf, 2, 3);
        a.to_mut().push(25);
        assert_eq!(&*a, &[10, 20, 25]);
        assert_eq!(&*b, &[30], "sibling view untouched");
        assert_eq!(buf[0], 10, "slab itself untouched");
        assert_eq!(a.heap_bytes(), 3 * SLOT_BYTES, "len + 1");
    }

    #[test]
    fn to_mut_edits_a_list_held_once_and_copies_a_shared_one() {
        let mut v = Vec::with_capacity(8);
        v.extend([1u32, 2]);
        let mut a = NbrList::from(v);
        let at = a.as_ptr();
        a.to_mut().push(3);
        assert_eq!(a.as_ptr(), at, "held once: edited in place");
        let mut b = a.clone();
        assert_eq!(b.as_ptr(), at, "a clone shares the list");
        let mut stats = AdjacencyStats::default();
        a.accumulate(&mut stats, &mut Default::default());
        assert_eq!((stats.owned_lists, stats.shared_lists), (1, 1));
        b.to_mut().push(4);
        assert_ne!(b.as_ptr(), at, "the first edit copies");
        assert_eq!((&*a, &*b), (&[1, 2, 3][..], &[1, 2, 3, 4][..]));
        let at = b.as_ptr();
        b.to_mut().remove(0);
        assert_eq!(b.as_ptr(), at, "the copy is this version's alone");
    }

    #[test]
    fn empty_lists_are_views_of_the_empty_slab() {
        for empty in [NbrList::default(), NbrList::from(Vec::with_capacity(8))] {
            assert!(empty.is_empty());
            assert_eq!(empty.slab_id().map(|(_, len)| len), Some(0));
            assert_eq!(empty.heap_bytes(), 0);
        }
    }

    #[test]
    fn heap_bytes_charges_slab_ranges() {
        let buf: Arc<[u32]> = Arc::from(vec![0u32; 8]);
        let view = NbrList::slab(&buf, 2, 6);
        assert_eq!(view.heap_bytes(), 4 * SLOT_BYTES);
    }

    #[test]
    fn compact_rewrites_views_and_owned_into_one_slab() {
        let buf: Arc<[u32]> = Arc::from(vec![1u32, 2, 3, 4, 5, 6]);
        let mut a = NbrList::slab(&buf, 0, 2); // survives
        let mut b = NbrList::from(vec![7, 8, 9]); // materialized earlier
        let mut c = NbrList::slab(&buf, 4, 6); // survives; [2..4] is dead
        let old_weak = Arc::downgrade(&buf);
        drop(buf);
        NbrList::compact(&mut [&mut a, &mut b, &mut c]);
        assert_eq!(&*a, &[1, 2]);
        assert_eq!(&*b, &[7, 8, 9]);
        assert_eq!(&*c, &[5, 6]);
        assert_eq!(
            old_weak.upgrade(),
            None,
            "old slab freed once its last view is rebound"
        );
        let (a_id, a_len) = a.slab_id().expect("rebound as view");
        assert_eq!(a.slab_id().map(|(p, _)| p), c.slab_id().map(|(p, _)| p));
        assert_eq!(b.slab_id().map(|(p, _)| p), Some(a_id));
        assert_eq!(a_len, 7, "fresh slab is exactly sized");
    }

    #[test]
    fn compact_handles_empty_input_and_empty_lists() {
        NbrList::compact(&mut []);
        let mut a = NbrList::default();
        let mut b = NbrList::from(vec![1]);
        NbrList::compact(&mut [&mut a, &mut b]);
        assert!(a.is_empty());
        assert_eq!(&*b, &[1]);
    }

    #[test]
    fn adjacency_stats_see_dead_ranges() {
        let buf: Arc<[u32]> = Arc::from(vec![0u32; 8]);
        let live = NbrList::slab(&buf, 0, 2);
        drop(buf);
        let mut stats = AdjacencyStats::default();
        let mut slabs = std::collections::HashMap::new();
        live.accumulate(&mut stats, &mut slabs);
        let stats = stats.finish(&slabs);
        let elt = SLOT_BYTES;
        assert_eq!(stats.live_slab_bytes, 2 * elt);
        assert_eq!(stats.total_slab_bytes, 8 * elt);
        assert_eq!(stats.dead_slab_bytes(), 6 * elt);
    }
}
