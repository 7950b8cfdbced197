//! Epoch-based version reclamation: wait-free reader pins, single-writer
//! copy-on-write publish, deferred reclamation.
//!
//! This is the substrate under the core crate's `Catalog` (GraphX-style
//! versioned snapshots of tables and graphs) and under graph compaction,
//! which publishes a rewritten adjacency slab as a new version. The
//! protocol is the classic epoch scheme specialized to one writer:
//!
//! * a [`EpochDomain`] holds a monotonically increasing **global epoch**
//!   and a fixed array of **pin slots** ([`DEFAULT_EPOCH_SLOTS`], padded to
//!   a cache line each) — one per pinning thread, plus one per live
//!   [`OwnedEpochGuard`], which owns its slot so it can migrate threads;
//! * a reader [`EpochDomain::pin`]s by writing the epoch it observed
//!   into its thread's slot and re-validating the global epoch —
//!   steady-state this is a handful of loads and stores, no CAS, no
//!   lock, and never blocks on a writer. Nested pins on a thread bump a
//!   slot-local depth count and share the outer pin's (older) epoch, so
//!   guards may drop in any order — the slot unpins when the count
//!   returns to zero;
//! * the single writer publishes a new [`Versioned`] value by swinging
//!   the current pointer (`Release`) and *then* advancing the global
//!   epoch, recording the displaced version with the post-advance epoch;
//! * a retired version is freed only once [`EpochDomain::min_pinned`]
//!   reaches its retire epoch, so any reader that could still hold a
//!   reference keeps it alive.
//!
//! Why the re-validation loop in `pin` is load-bearing: the reader's
//! slot store and the writer's reclamation scan race in both directions
//! (Dekker's pattern — reader stores slot then loads global, writer
//! stores global then loads slots). With plain acquire/release either
//! side may miss the other and a version could be freed under a reader
//! that just pinned. Both rungs are therefore `SeqCst`: the single total
//! order guarantees that if the reader's re-load still sees the *old*
//! epoch, its slot store precedes the writer's scan, and if it sees the
//! *new* epoch, the acquire edge from the epoch advance makes the new
//! current pointer (and nothing older) the only value the reader can
//! load. The deliberately weakened variant of this protocol is killed by
//! the checker in `crates/check/tests/model_epoch.rs`.
//!
//! Everything routes through [`crate::sync`], so the same source runs on
//! real atomics in production and on `ringo-check`'s virtual atomics
//! under `--features model`.

use crate::sync::{yield_now, VAtomicPtr, VAtomicU64, VAtomicUsize, VMutex};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

/// Slot value meaning "no epoch pinned".
const UNPINNED: u64 = u64::MAX;

/// Slot owner flag: free for any thread (or owned guard) to claim.
const FREE: usize = 0;
/// Slot owner flag: claimed — by a thread's claim cache (borrowed pins)
/// or by one [`OwnedEpochGuard`] (which owns its slot outright).
const CLAIMED: usize = 1;
/// High bit of `Slot::depth`: the owning thread's claim cache was
/// destroyed while a borrowed guard on this thread was still live (TLS
/// destructor order is unspecified), so releasing the slot's claim
/// falls to that last guard's drop. Lives in the depth word so the
/// common unpin path needs no extra load to rule it out.
const DEPTH_ORPHANED: usize = usize::MAX / 2 + 1;

/// Pin-slot count of [`EpochDomain::new`]: generous enough that slot
/// claiming never becomes the bottleneck for any pool size this repo
/// targets.
pub const DEFAULT_EPOCH_SLOTS: usize = 64;

/// One reader's pin slot, padded to its own cache line so pin/unpin
/// traffic from different threads never false-shares.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Slot {
    /// The epoch this slot's owner has pinned, or [`UNPINNED`]. Written
    /// by the pinning side; read by the writer's reclamation scan.
    epoch: VAtomicU64,
    /// [`FREE`], [`CLAIMED`] or [`ORPHANED`].
    owner: VAtomicUsize,
    /// Count of live borrowed guards on this slot *beyond the first*
    /// (so the outermost pin/unpin never touches it), plus the
    /// [`DEPTH_ORPHANED`] flag bit. Borrowed guards are `!Send`, so for
    /// a TLS-claimed slot every access happens on the claiming thread —
    /// a drop defers to the remaining guards while the count is
    /// nonzero and unpins the slot otherwise, which keeps any drop
    /// order of nested guards (LIFO or not) sound. Unused (zero) for
    /// slots dedicated to an [`OwnedEpochGuard`].
    depth: VAtomicUsize,
}

/// The slot array, `Arc`-shared so thread-local claim caches can release
/// their claims on thread exit even if that races a domain drop.
#[derive(Debug)]
struct SlotArray {
    slots: Box<[Slot]>,
}

thread_local! {
    /// This thread's cached slot claims: `(domain id, slot index, array)`.
    /// Dropping the vec at thread exit releases every claim whose domain
    /// is still alive.
    static CLAIMS: RefCell<Vec<Claim>> = const { RefCell::new(Vec::new()) };
}

/// One cached slot claim (see [`CLAIMS`]).
struct Claim {
    domain_id: u64,
    idx: usize,
    array: Weak<SlotArray>,
}

impl Drop for Claim {
    fn drop(&mut self) {
        if let Some(array) = self.array.upgrade() {
            let slot = &array.slots[self.idx];
            // Borrowed guards are `!Send`, so any still-live guard on
            // this slot belongs to this thread — this TLS destructor
            // merely ran before the guard's drop (TLS destructor order
            // is unspecified, e.g. a guard parked in another TLS cell).
            // Hand the release to that last guard instead of freeing a
            // still-pinned slot out from under it, which would let a new
            // thread claim it and take an unprotected pin.
            // ORDERING: Relaxed — a TLS slot's epoch and depth are
            // written only by the owning thread, and this destructor
            // runs on it; the orphan flag is only read back by the same
            // thread's last guard drop.
            if slot.epoch.load(Ordering::Relaxed) != UNPINNED {
                let depth = slot.depth.load(Ordering::Relaxed);
                slot.depth.store(depth | DEPTH_ORPHANED, Ordering::Relaxed);
            } else {
                slot.owner.store(FREE, Ordering::Release);
            }
        }
    }
}

/// A reclamation domain: one global epoch plus the pin slots of every
/// reader thread that participates in it.
///
/// Readers call [`pin`](EpochDomain::pin) (or
/// [`pin_owned`](EpochDomain::pin_owned) from an `Arc`) and hold the
/// guard across every access to values protected by this domain. The
/// writer side lives in [`Versioned`].
#[derive(Debug)]
pub struct EpochDomain {
    /// Process-unique id, so thread-local claim caches never confuse two
    /// domains even if one is dropped and another reuses its allocation.
    id: u64,
    /// The current epoch. Starts at 1 and only grows.
    global: VAtomicU64,
    array: Arc<SlotArray>,
}

impl Default for EpochDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochDomain {
    /// A domain with [`DEFAULT_EPOCH_SLOTS`] pin slots.
    pub fn new() -> Self {
        Self::with_slots(DEFAULT_EPOCH_SLOTS)
    }

    /// A domain with an explicit slot count (the model tests shrink it to
    /// force claim contention).
    pub fn with_slots(n: usize) -> Self {
        static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let mut slots = Vec::with_capacity(n.max(1));
        slots.resize_with(n.max(1), || Slot {
            epoch: VAtomicU64::new(UNPINNED),
            owner: VAtomicUsize::new(FREE),
            depth: VAtomicUsize::new(0),
        });
        Self {
            // ORDERING: Relaxed — the id is only a uniqueness token; no
            // data is published through it. Deliberately a plain std
            // atomic (not the facade) so id generation adds no
            // preemption points to model schedules.
            id: NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            global: VAtomicU64::new(1),
            array: Arc::new(SlotArray {
                slots: slots.into_boxed_slice(),
            }),
        }
    }

    /// The current epoch (monotonic; advanced once per publish).
    pub fn epoch(&self) -> u64 {
        self.global.load(Ordering::Acquire)
    }

    /// Number of pin slots (fixed at construction).
    pub fn slot_count(&self) -> usize {
        self.array.slots.len()
    }

    /// Number of slots currently pinning an epoch — the shell's
    /// "pinned readers" figure.
    pub fn pinned_count(&self) -> usize {
        self.array
            .slots
            .iter()
            .filter(|s| s.epoch.load(Ordering::SeqCst) != UNPINNED)
            .count()
    }

    /// The oldest pinned epoch, or `u64::MAX` when nothing is pinned.
    /// A version retired at epoch `e` may be freed once
    /// `min_pinned() >= e`.
    pub fn min_pinned(&self) -> u64 {
        let mut min = UNPINNED;
        for slot in self.array.slots.iter() {
            min = min.min(slot.epoch.load(Ordering::SeqCst));
        }
        min
    }

    /// Advances the global epoch, returning the new value. Called by
    /// [`Versioned::publish`] after the pointer swing; the post-advance
    /// epoch is the retire epoch of the displaced version.
    pub fn advance(&self) -> u64 {
        self.global.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Pins the current epoch, keeping every version retired after this
    /// moment alive until the guard drops. Steady-state (slot already
    /// claimed by this thread) this is wait-free: two loads and one
    /// store, no CAS — strictly cheaper than an uncontended `RwLock`
    /// read, and never blocked by a writer publishing.
    // LINT: hot
    pub fn pin(&self) -> EpochGuard<'_> {
        let idx = self.claim_slot();
        let slot = &self.array.slots[idx];
        // ORDERING: Relaxed — a TLS slot's epoch is written only by
        // this thread; this read just detects an outer pin on the same
        // thread.
        let pinned = slot.epoch.load(Ordering::Relaxed);
        if pinned != UNPINNED {
            // Nested pin: the outer guard's older slot value already
            // protects everything retired from here on; overwriting it
            // with a newer epoch would un-protect the outer guard's
            // version mid-use. Bump the extra-guard count so the slot
            // is cleared only when the *last* guard drops, in any drop
            // order, and report the epoch the slot actually protects.
            // ORDERING: Relaxed — depth is same-thread traffic (the
            // guard is `!Send`); the scan only reads `epoch`, whose
            // cross-thread edges are the SeqCst pin protocol's.
            let depth = slot.depth.load(Ordering::Relaxed);
            slot.depth.store(depth + 1, Ordering::Relaxed);
            return EpochGuard {
                domain: self,
                idx,
                epoch: pinned,
                _not_send: PhantomData,
            };
        }
        // Outermost pin: depth (extra guards beyond this one) is
        // already 0, so only the epoch write is needed.
        let epoch = self.pin_slot(slot);
        EpochGuard {
            domain: self,
            idx,
            epoch,
            _not_send: PhantomData,
        }
    }

    /// The validated pin write shared by borrowed and owned pins: store
    /// the observed epoch, re-load, retry until they agree.
    // LINT: hot
    fn pin_slot(&self, slot: &Slot) -> u64 {
        let mut e = self.global.load(Ordering::Acquire);
        loop {
            slot.epoch.store(e, Ordering::SeqCst);
            // ORDERING: SeqCst on both the store above and this re-load —
            // Dekker's pattern against the writer's advance + scan; see
            // the module docs. If the re-load disagrees, the pin may be
            // invisible to an in-flight scan: retry at the newer epoch.
            let seen = self.global.load(Ordering::SeqCst);
            if seen == e {
                return e;
            }
            e = seen;
        }
    }

    /// Like [`pin`](Self::pin), but the guard co-owns the domain, for
    /// snapshots that must outlive the borrow (the catalog's `Snapshot`).
    ///
    /// The returned guard is `Send`: it may migrate to, and drop on, a
    /// different thread than the one that pinned — including after the
    /// pinning thread has exited. To make that sound it does not share
    /// the thread-affine TLS claim: it claims a dedicated slot here and
    /// owns it until drop, wherever that runs. Nested `pin_owned` calls
    /// therefore each occupy their own slot (size the domain's slot count
    /// for the peak of concurrently-pinning threads *plus* live owned
    /// snapshots).
    pub fn pin_owned(self: &Arc<Self>) -> OwnedEpochGuard {
        let idx = self.claim_slot_slow();
        let epoch = self.pin_slot(&self.array.slots[idx]);
        OwnedEpochGuard {
            domain: Arc::clone(self),
            idx,
            epoch,
        }
    }

    /// Finds this thread's slot in the claim cache, claiming one on the
    /// first pin from this thread (nested borrowed pins reuse it via the
    /// slot's depth count and need no extra slot).
    // LINT: hot
    fn claim_slot(&self) -> usize {
        let cached = CLAIMS.with(|c| {
            c.borrow()
                .iter()
                .find(|cl| cl.domain_id == self.id)
                .map(|cl| cl.idx)
        });
        if let Some(idx) = cached {
            return idx;
        }
        let idx = self.claim_slot_slow();
        CLAIMS.with(|c| {
            let mut claims = c.borrow_mut();
            // Prune cache entries for dead domains on the miss path (the
            // only path that grows the list), so a long-lived thread
            // touching many short-lived domains doesn't scan a growing
            // list — and the steady-state hit path above stays a pure
            // TLS scan with no per-pin `Weak` upgrade traffic.
            claims.retain(|cl| cl.array.strong_count() > 0);
            claims.push(Claim {
                domain_id: self.id,
                idx,
                array: Arc::downgrade(&self.array),
            });
        });
        idx
    }

    /// Claims a free slot with a CAS: the first pin from a thread on
    /// this domain, and every [`pin_owned`](Self::pin_owned). Spins
    /// (with yields) when every slot is claimed — capacity is a
    /// configuration matter (the slot count must cover the peak of
    /// concurrently-pinning threads plus live owned guards), not a
    /// correctness one. [`ORPHANED`] slots are skipped: their release
    /// belongs to the lingering guard.
    fn claim_slot_slow(&self) -> usize {
        loop {
            for (idx, slot) in self.array.slots.iter().enumerate() {
                // ORDERING: Relaxed — the pre-check load is a contention
                // filter only; the AcqRel CAS (with a Relaxed failure
                // load, another filter) carries the claim's edge.
                if slot.owner.load(Ordering::Relaxed) == FREE
                    && slot
                        .owner
                        .compare_exchange(FREE, CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    return idx;
                }
            }
            yield_now();
        }
    }
}

/// RAII pin on an [`EpochDomain`]; see [`EpochDomain::pin`].
///
/// `!Send`: borrowed guards share this thread's TLS-claimed slot, and
/// the slot's depth bookkeeping is plain same-thread traffic — sound
/// only because the guard cannot migrate. Guards on the same thread may
/// drop in any order (the slot unpins when the last one goes). For a
/// guard that must cross threads, use [`EpochDomain::pin_owned`].
#[derive(Debug)]
pub struct EpochGuard<'a> {
    domain: &'a EpochDomain,
    idx: usize,
    epoch: u64,
    _not_send: PhantomData<*mut ()>,
}

impl EpochGuard<'_> {
    /// The epoch this guard protects: the pin-time epoch, or for a
    /// nested pin the (possibly older) epoch of this thread's outer pin.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn domain_id(&self) -> u64 {
        self.domain.id
    }
}

impl Drop for EpochGuard<'_> {
    // LINT: hot
    fn drop(&mut self) {
        let slot = &self.domain.array.slots[self.idx];
        // ORDERING: Relaxed — depth is thread-affine (the guard is
        // `!Send`). Drops may be non-LIFO relative to other guards on
        // this thread: a drop that still sees siblings (depth > 0)
        // defers to them; the drop that sees none clears the pin.
        let depth = slot.depth.load(Ordering::Relaxed);
        if depth == 0 {
            // ORDERING: Release — pairs with the writer scan's SeqCst
            // loads of the slot epoch; everything this reader did while
            // pinned is visible before the slot reads unpinned.
            slot.epoch.store(UNPINNED, Ordering::Release);
        } else if depth == DEPTH_ORPHANED {
            // Last guard on a slot whose claim cache was destroyed
            // first (see `Claim::drop`): releasing the claim fell to
            // this guard.
            slot.depth.store(0, Ordering::Relaxed);
            slot.epoch.store(UNPINNED, Ordering::Release);
            slot.owner.store(FREE, Ordering::Release);
        } else {
            // Sibling guards remain (the orphan bit, if set, rides
            // along untouched: depth - 1 keeps it while any count
            // bits remain).
            // ORDERING: Relaxed — same thread-affine depth counter as
            // the load above; no other thread observes it.
            slot.depth.store(depth - 1, Ordering::Relaxed);
        }
    }
}

/// Owning, `Send` variant of [`EpochGuard`]; see
/// [`EpochDomain::pin_owned`]. Owns its pin slot outright, so it may be
/// dropped on any thread, after the pinning thread exits included.
#[derive(Debug)]
pub struct OwnedEpochGuard {
    domain: Arc<EpochDomain>,
    idx: usize,
    epoch: u64,
}

impl OwnedEpochGuard {
    /// The epoch this guard observed at pin time.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn domain_id(&self) -> u64 {
        self.domain.id
    }
}

impl Drop for OwnedEpochGuard {
    fn drop(&mut self) {
        let slot = &self.domain.array.slots[self.idx];
        // ORDERING: Release on both stores — the unpin pairs with the
        // writer scan's SeqCst loads (same edge as `EpochGuard::drop`),
        // and the owner release is ordered after it so a thread that
        // re-claims this slot (AcqRel CAS in `claim_slot_slow`) never
        // finds our stale pinned epoch in it.
        slot.epoch.store(UNPINNED, Ordering::Release);
        slot.owner.store(FREE, Ordering::Release);
    }
}

/// One published version's heap node; owned by `current` while live,
/// then by the retired list until reclaimed.
#[derive(Debug)]
struct VersionNode<T> {
    value: T,
}

/// A version awaiting reclamation: freed once `min_pinned >= epoch`.
struct Retired<T> {
    /// The post-advance epoch of the publish that displaced this node.
    epoch: u64,
    node: *mut VersionNode<T>,
}

/// An epoch-versioned cell: readers [`load`](Versioned::load) the
/// current value under a pin, a single writer
/// [`publish`](Versioned::publish)es replacements, and displaced
/// versions are reclaimed by [`gc`](Versioned::gc) once no pin predates
/// them.
///
/// ```
/// use ringo_concurrent::epoch::{EpochDomain, Versioned};
/// use std::sync::Arc;
///
/// let domain = Arc::new(EpochDomain::new());
/// let cell = Versioned::new(Arc::clone(&domain), "v1");
/// let guard = domain.pin();
/// assert_eq!(*cell.load(&guard), "v1");
/// cell.publish("v2");
/// // The pinned reader can still reach v1's memory; new pins see v2.
/// assert_eq!(cell.gc(), 0, "v1 stays while the old pin lives");
/// drop(guard);
/// assert_eq!(cell.gc(), 1, "v1 reclaimed after unpin");
/// let guard = domain.pin();
/// assert_eq!(*cell.load(&guard), "v2");
/// ```
pub struct Versioned<T> {
    domain: Arc<EpochDomain>,
    /// Never null: constructed with an initial version.
    current: VAtomicPtr<VersionNode<T>>,
    /// Serializes publish against publish and against gc — the "single
    /// writer" of the protocol is whoever holds this lock.
    writer: VMutex<Vec<Retired<T>>>,
}

// SAFETY: the raw `VersionNode` pointers are created from `Box` and
// uniquely owned by this cell's current-pointer / retired-list
// structure; shared references handed out by `load` are `&T`, so the
// usual `Send + Sync` bounds on `T` make cross-thread sharing of the
// cell sound.
unsafe impl<T: Send + Sync> Send for Versioned<T> {}
// SAFETY: see the `Send` impl above; `load` only ever produces `&T`.
unsafe impl<T: Send + Sync> Sync for Versioned<T> {}

impl<T> Versioned<T> {
    /// A cell whose first version is `initial`, protected by `domain`.
    pub fn new(domain: Arc<EpochDomain>, initial: T) -> Self {
        let node = Box::into_raw(Box::new(VersionNode { value: initial }));
        Self {
            domain,
            current: VAtomicPtr::new(node),
            writer: VMutex::new(Vec::new()),
        }
    }

    /// The domain protecting this cell.
    pub fn domain(&self) -> &Arc<EpochDomain> {
        &self.domain
    }

    /// The current value, valid for as long as `guard` stays pinned.
    ///
    /// # Panics
    /// Panics if `guard` pins a different domain than this cell's.
    // LINT: hot
    pub fn load<'a>(&'a self, guard: &'a EpochGuard<'_>) -> &'a T {
        assert_eq!(
            guard.domain_id(),
            self.domain.id,
            "epoch guard pins a different domain than this Versioned cell"
        );
        let p = self.current.load(Ordering::Acquire);
        // SAFETY: `current` is never null, and the node it points at
        // cannot have been freed: reclamation requires `min_pinned >=
        // retire_epoch`, the validated pin holds the guard's slot at an
        // epoch older than any publish that could retire this node, and
        // the SeqCst pin/scan protocol (module docs) guarantees the scan
        // sees that slot. The `'a` bound ties the borrow to both the
        // guard (pin lifetime) and `self` (cell lifetime).
        unsafe { &(*p).value }
    }

    /// Like [`load`](Self::load) but for an owned guard.
    ///
    /// # Panics
    /// Panics if `guard` pins a different domain than this cell's.
    pub fn load_owned<'a>(&'a self, guard: &'a OwnedEpochGuard) -> &'a T {
        assert_eq!(
            guard.domain_id(),
            self.domain.id,
            "epoch guard pins a different domain than this Versioned cell"
        );
        let p = self.current.load(Ordering::Acquire);
        // SAFETY: identical argument to `load`; the owned guard pins the
        // same slot protocol.
        unsafe { &(*p).value }
    }

    /// Installs `value` as the new current version and retires the old
    /// one, returning the new global epoch. Readers never block on this:
    /// the swing is one `Release` pointer store.
    pub fn publish(&self, value: T) -> u64 {
        let mut sp = ringo_trace::span!("epoch.publish");
        let mut retired = self.writer.lock();
        let node = Box::into_raw(Box::new(VersionNode { value }));
        // ORDERING: Acquire/Release on the current pointer — only the
        // lock holder stores it, so load-then-store is not a race; the
        // Release store publishes the new node's contents to readers'
        // Acquire loads. The epoch advance AFTER the swing (SeqCst, see
        // module docs) is what makes the retire epoch safe: any reader
        // pinned before the advance can at worst still see the old node,
        // whose retire epoch now exceeds that reader's pin.
        let old = self.current.load(Ordering::Acquire);
        self.current.store(node, Ordering::Release);
        let epoch = self.domain.advance();
        retired.push(Retired { epoch, node: old });
        sp.rows_out(retired.len());
        epoch
    }

    /// Number of versions retired but not yet reclaimed.
    pub fn retired_count(&self) -> usize {
        self.writer.lock().len()
    }

    /// Frees every retired version no pinned reader can still reach,
    /// returning how many were freed.
    pub fn gc(&self) -> usize {
        let mut sp = ringo_trace::span!("epoch.gc");
        let mut retired = self.writer.lock();
        sp.rows_in(retired.len());
        let min = self.domain.min_pinned();
        let before = retired.len();
        retired.retain(|r| {
            if r.epoch <= min {
                // SAFETY: retired nodes are uniquely owned by this list
                // (the publish that displaced them holds the only other
                // path, `current`, which now points elsewhere), and
                // `min_pinned >= retire epoch` proves no reader pin can
                // still reach the node (module docs).
                drop(unsafe { Box::from_raw(r.node) });
                false
            } else {
                true
            }
        });
        let freed = before - retired.len();
        ringo_trace::counter("epoch.reclaimed").add(freed as u64);
        sp.rows_out(freed);
        freed
    }
}

impl<T> Drop for Versioned<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no guard-borrowed reference remains
        // (load ties borrows to `&self`), so both the current node and
        // every retired node are uniquely reachable from here.
        unsafe {
            drop(Box::from_raw(*self.current.get_mut()));
            for r in self.writer.get_mut().drain(..) {
                drop(Box::from_raw(r.node));
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Versioned<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Versioned")
            .field("epoch", &self.domain.epoch())
            .field("retired", &self.retired_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_tracks_current_epoch() {
        let d = EpochDomain::with_slots(4);
        assert_eq!(d.epoch(), 1);
        let g = d.pin();
        assert_eq!(g.epoch(), 1);
        assert_eq!(d.pinned_count(), 1);
        assert_eq!(d.min_pinned(), 1);
        drop(g);
        assert_eq!(d.pinned_count(), 0);
        assert_eq!(d.min_pinned(), u64::MAX);
    }

    #[test]
    fn nested_pins_keep_oldest_epoch() {
        let d = Arc::new(EpochDomain::with_slots(4));
        let cell = Versioned::new(Arc::clone(&d), 1u32);
        let outer = d.pin();
        cell.publish(2);
        let inner = d.pin();
        // The inner pin must not overwrite the outer pin's older epoch.
        assert_eq!(d.min_pinned(), outer.epoch());
        assert_eq!(*cell.load(&inner), 2, "inner pin reads the new version");
        assert_eq!(cell.gc(), 0, "outer pin still protects v1");
        drop(inner);
        assert_eq!(d.min_pinned(), outer.epoch(), "outer pin survives inner");
        drop(outer);
        assert_eq!(cell.gc(), 1);
    }

    #[test]
    fn nested_guard_reports_protected_epoch() {
        let d = Arc::new(EpochDomain::with_slots(4));
        let cell = Versioned::new(Arc::clone(&d), 0u8);
        let outer = d.pin();
        cell.publish(1);
        cell.publish(2);
        let inner = d.pin();
        // The slot still pins the outer epoch; the nested guard must not
        // claim a newer one than the pin actually protects.
        assert_eq!(inner.epoch(), outer.epoch());
        assert_eq!(d.min_pinned(), outer.epoch());
    }

    #[test]
    fn non_lifo_guard_drop_keeps_remaining_pin() {
        let d = Arc::new(EpochDomain::with_slots(4));
        let cell = Versioned::new(Arc::clone(&d), vec![1u8; 32]);
        let g1 = d.pin();
        let g2 = d.pin();
        let v1 = cell.load(&g2);
        // Dropping the *first* (outermost) guard while the nested one is
        // still live must not clear the slot.
        drop(g1);
        assert_eq!(d.min_pinned(), g2.epoch(), "g2 still pins");
        cell.publish(vec![2u8; 32]);
        assert_eq!(cell.gc(), 0, "v1 stays reachable under g2");
        assert_eq!(v1[0], 1, "pinned version intact after non-LIFO drop");
        drop(g2);
        assert_eq!(cell.gc(), 1);
    }

    #[test]
    fn owned_guards_take_dedicated_slots() {
        let d = Arc::new(EpochDomain::with_slots(4));
        let a = d.pin_owned();
        let b = d.pin_owned();
        assert_eq!(d.pinned_count(), 2, "owned pins never share a slot");
        let g = d.pin();
        assert_eq!(d.pinned_count(), 3);
        // Any drop order releases exactly the dropped pin.
        drop(a);
        drop(g);
        assert_eq!(d.pinned_count(), 1);
        assert_eq!(d.min_pinned(), b.epoch());
        drop(b);
        assert_eq!(d.pinned_count(), 0);
    }

    #[test]
    fn owned_guard_survives_thread_exit_and_foreign_drop() {
        let d = Arc::new(EpochDomain::with_slots(2));
        let cell = Arc::new(Versioned::new(Arc::clone(&d), 1u32));
        // Pin on a thread that exits immediately: the guard migrates out
        // while the creating thread's TLS is torn down.
        let g = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || d.pin_owned()).join().unwrap()
        };
        // A new thread claiming a slot must not land on the migrated
        // guard's (still-pinned) slot and take an unprotected pin.
        {
            let (d, cell) = (Arc::clone(&d), Arc::clone(&cell));
            std::thread::spawn(move || {
                let inner = d.pin();
                assert_eq!(*cell.load(&inner), 1);
            })
            .join()
            .unwrap();
        }
        cell.publish(2);
        assert_eq!(cell.gc(), 0, "migrated guard still pins v1");
        assert_eq!(*cell.load_owned(&g), 2);
        // Dropped on a different thread than the one that pinned.
        drop(g);
        assert_eq!(cell.gc(), 1);
        assert_eq!(d.pinned_count(), 0);
    }

    #[test]
    fn publish_retire_reclaim_cycle() {
        let d = Arc::new(EpochDomain::with_slots(4));
        let cell = Versioned::new(Arc::clone(&d), vec![1u8; 64]);
        let g = d.pin();
        assert_eq!(cell.load(&g).len(), 64);
        for i in 0..5 {
            cell.publish(vec![i; 64]);
        }
        assert_eq!(cell.retired_count(), 5);
        assert_eq!(cell.gc(), 0, "pinned reader holds all retirees");
        drop(g);
        assert_eq!(cell.gc(), 5);
        assert_eq!(cell.retired_count(), 0);
        let g = d.pin();
        assert_eq!(*cell.load(&g), vec![4u8; 64]);
    }

    #[test]
    fn owned_guard_pins_like_borrowed() {
        let d = Arc::new(EpochDomain::with_slots(4));
        let cell = Versioned::new(Arc::clone(&d), 7i64);
        let g = d.pin_owned();
        cell.publish(8);
        assert_eq!(*cell.load_owned(&g), 8);
        assert_eq!(cell.gc(), 0);
        drop(g);
        assert_eq!(cell.gc(), 1);
    }

    #[test]
    fn slots_are_reused_across_threads() {
        let d = Arc::new(EpochDomain::with_slots(2));
        // Sequential short-lived threads release their claims on exit,
        // so two slots serve any number of them.
        for i in 0..8u64 {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                let g = d.pin();
                assert!(g.epoch() >= 1);
                i
            })
            .join()
            .unwrap();
        }
        assert_eq!(d.pinned_count(), 0);
    }

    #[test]
    fn concurrent_readers_never_see_freed_versions() {
        let d = Arc::new(EpochDomain::new());
        let cell = Arc::new(Versioned::new(Arc::clone(&d), vec![0u64; 256]));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (d, cell, stop) = (Arc::clone(&d), Arc::clone(&cell), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let g = d.pin();
                        let v = cell.load(&g);
                        let first = v[0];
                        assert!(v.iter().all(|&x| x == first), "torn version");
                        assert!(first >= last, "version went backwards");
                        last = first;
                    }
                })
            })
            .collect();
        for ver in 1..=200u64 {
            cell.publish(vec![ver; 256]);
            cell.gc();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        cell.gc();
        assert_eq!(cell.retired_count(), 0, "all pins gone after join");
    }
}
