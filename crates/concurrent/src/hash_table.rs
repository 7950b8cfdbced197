//! Open-addressing hash tables with linear probing.
//!
//! The paper (§2.5) implements "an open addressing hash table with linear
//! probing" as the backbone of both the graph's node index and the table
//! engine's grouping/join operators, citing its cache friendliness for
//! integer keys. [`IntHashTable`] is that table, sequential, with proper
//! deletion (backward-shift, no tombstones); every `i64` is a legal key.
//! [`KeyInterner`] maps
//! fixed-width multi-word keys to dense first-appearance ids without a
//! reserved key or a per-key allocation — the index under group-by,
//! distinct and the set operations. The paper's concurrent variant (CAS
//! insertion during parallel graph construction) has no counterpart: the
//! sort-first conversion partitions the work so no two workers insert
//! into one table.

/// Sentinel marking an empty slot of a probe array. [`IntHashTable`] keeps
/// the entry with this key in a side cell instead, so to it the key is
/// ordinary.
const EMPTY_KEY: i64 = i64::MIN;

/// Finalizer from splitmix64: cheap, well-mixed hashing for integer keys.
#[inline]
pub fn hash_i64(key: i64) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A sequential open-addressing hash map from `i64` keys to values of type
/// `V`, using linear probing and backward-shift deletion.
///
/// Capacity is always a power of two; the table grows at 75% load. The
/// probe array marks empty slots with `i64::MIN`, so the entry with
/// that key lives in a side cell: every key is legal, and the probe loop
/// never meets it.
#[derive(Clone, Debug)]
pub struct IntHashTable<V> {
    keys: Vec<i64>,
    vals: Vec<Option<V>>,
    /// Entries in the probe array (the side cell is not counted).
    len: usize,
    mask: usize,
    /// The value of key `i64::MIN`, if present.
    min: Option<V>,
}

impl<V> Default for IntHashTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> IntHashTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// Creates a table that can hold at least `cap` entries before growing.
    pub fn with_capacity(cap: usize) -> Self {
        let slots = (cap.max(4) * 4 / 3 + 1).next_power_of_two();
        Self {
            keys: vec![EMPTY_KEY; slots],
            vals: (0..slots).map(|_| None).collect(),
            len: 0,
            mask: slots - 1,
            min: None,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len + usize::from(self.min.is_some())
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots currently allocated (diagnostic / memory accounting).
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    /// Approximate heap footprint of the table structure itself, excluding
    /// any heap memory owned by the values.
    pub fn mem_size(&self) -> usize {
        self.keys.len() * std::mem::size_of::<i64>()
            + self.vals.len() * std::mem::size_of::<Option<V>>()
    }

    #[inline]
    fn slot_of(&self, key: i64) -> usize {
        (hash_i64(key) as usize) & self.mask
    }

    /// Finds the probe-array slot holding `key` (never `EMPTY_KEY`, which
    /// lives in the side cell), if present.
    #[inline]
    fn probe(&self, key: i64) -> Option<usize> {
        debug_assert_ne!(key, EMPTY_KEY, "the side cell's key is not probed");
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts `key -> val`, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: i64, val: V) -> Option<V> {
        if key == EMPTY_KEY {
            return self.min.replace(val);
        }
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return self.vals[i].replace(val);
            }
            if k == EMPTY_KEY {
                self.keys[i] = key;
                self.vals[i] = Some(val);
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Returns a reference to the value for `key`.
    pub fn get(&self, key: i64) -> Option<&V> {
        if key == EMPTY_KEY {
            return self.min.as_ref();
        }
        self.probe(key)
            .map(|i| self.vals[i].as_ref().expect("occupied slot"))
    }

    /// Returns a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: i64) -> Option<&mut V> {
        if key == EMPTY_KEY {
            return self.min.as_mut();
        }
        match self.probe(key) {
            Some(i) => self.vals[i].as_mut(),
            None => None,
        }
    }

    /// Returns the value for `key`, inserting `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: i64, default: impl FnOnce() -> V) -> &mut V {
        if key == EMPTY_KEY {
            return self.min.get_or_insert_with(default);
        }
        if self.probe(key).is_none() {
            self.insert(key, default());
        }
        let i = self.probe(key).expect("just inserted");
        self.vals[i].as_mut().expect("occupied slot")
    }

    /// True when `key` is present.
    pub fn contains(&self, key: i64) -> bool {
        self.get(key).is_some()
    }

    /// Removes `key`, returning its value. Uses backward-shift deletion so
    /// probe sequences stay compact (no tombstones accumulate).
    pub fn remove(&mut self, key: i64) -> Option<V> {
        if key == EMPTY_KEY {
            return self.min.take();
        }
        let mut hole = self.probe(key)?;
        let val = self.vals[hole].take();
        self.keys[hole] = EMPTY_KEY;
        self.len -= 1;
        // Backward-shift: walk forward; any entry whose home slot does not
        // lie in the (cyclic) open interval (hole, current] is moved into
        // the hole.
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let k = self.keys[i];
            if k == EMPTY_KEY {
                break;
            }
            let home = self.slot_of(k);
            let in_between = if hole < i {
                hole < home && home <= i
            } else {
                home > hole || home <= i
            };
            if !in_between {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[i].take();
                self.keys[i] = EMPTY_KEY;
                hole = i;
            }
        }
        val
    }

    /// Iterates over `(key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &V)> {
        let side = self.min.iter().map(|v| (EMPTY_KEY, v));
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(k, _)| **k != EMPTY_KEY)
            .map(|(k, v)| (*k, v.as_ref().expect("occupied slot")))
            .chain(side)
    }

    /// Iterates over keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, (0..new_slots).map(|_| None).collect());
        self.mask = new_slots - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                self.insert(k, v.expect("occupied slot"));
            }
        }
    }
}

/// Id marking an empty [`KeyInterner`] slot.
const NO_ID: u32 = u32::MAX;

/// Hash of a fixed-width key, as [`KeyInterner`] places it (by the low
/// bits — radix partitioners take the high ones, as with [`hash_i64`] in
/// the join build). A single word goes through [`hash_i64`]
/// alone — a bijection on 64 bits (add, xor-shift and odd multiply are
/// each invertible), so two one-word keys hash equal only when they are
/// equal; further words chain through the same finalizer.
#[inline]
pub fn hash_words(key: &[u64]) -> u64 {
    let mut h = hash_i64(key[0] as i64);
    for &w in &key[1..] {
        h = hash_i64((h ^ w) as i64);
    }
    h
}

/// A sequential open-addressing, linear-probing map from fixed-width keys
/// (`width` `u64` words each) to dense ids `0..len()`, handed out in
/// first-insertion order — the grouping / dedup index of the table engine.
///
/// Unlike [`IntHashTable`] no key value is reserved: a slot holds the
/// key's hash and its id, and emptiness lives in the id. A one-word key is
/// identified by its hash alone ([`hash_i64`] is a bijection) and stored
/// nowhere else; wider keys are stored once, in id order, in one flat
/// arena, so inserting allocates only when the arena or the slot array
/// doubles — never per key.
#[derive(Clone, Debug)]
pub struct KeyInterner {
    width: usize,
    /// `(hash, id)` per slot; `id == NO_ID` marks an empty slot.
    slots: Vec<(u64, u32)>,
    /// Key words of id `g` at `g * width..(g + 1) * width`; unused (and
    /// empty) when `width == 1`.
    keys: Vec<u64>,
    len: u32,
    mask: usize,
}

impl KeyInterner {
    /// Creates an interner for keys of `width` words (at least one) that
    /// can hold `cap` keys before growing.
    pub fn with_capacity(width: usize, cap: usize) -> Self {
        assert!(width >= 1, "keys have at least one word");
        let slots = (cap.max(4) * 4 / 3 + 1).next_power_of_two();
        Self {
            width,
            slots: vec![(0, NO_ID); slots],
            keys: Vec::with_capacity(if width == 1 { 0 } else { cap * width }),
            len: 0,
            mask: slots - 1,
        }
    }

    /// Number of distinct keys interned.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no key has been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot of `key` (hash `h`): `Ok(id)` when present, `Err(slot)` with
    /// the empty slot that ends its probe sequence otherwise.
    #[inline]
    fn probe(&self, key: &[u64], h: u64) -> Result<u32, usize> {
        debug_assert_eq!(key.len(), self.width);
        let mut i = h as usize & self.mask;
        loop {
            let (sh, id) = self.slots[i];
            if id == NO_ID {
                return Err(i);
            }
            // One-word keys are equal exactly when their hashes are (see
            // `hash_words`); wider keys confirm against the arena.
            if sh == h && (self.width == 1 || self.key(id) == key) {
                return Ok(id);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Returns the id of `key`, assigning the next dense id if it is new;
    /// the flag says whether it was.
    ///
    /// `key` must hold exactly `width` words.
    ///
    /// # Panics
    /// Panics when all `u32::MAX` ids are taken.
    #[inline]
    pub fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        if (self.len as usize + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let h = hash_words(key);
        match self.probe(key, h) {
            Ok(id) => (id, false),
            Err(slot) => {
                let id = self.len;
                assert!(id < NO_ID, "KeyInterner id space exhausted");
                self.slots[slot] = (h, id);
                if self.width > 1 {
                    self.keys.extend_from_slice(key);
                }
                self.len += 1;
                (id, true)
            }
        }
    }

    /// The id of `key`, if it has been interned.
    #[inline]
    pub fn find(&self, key: &[u64]) -> Option<u32> {
        self.probe(key, hash_words(key)).ok()
    }

    /// The words of key `id`.
    #[inline]
    fn key(&self, id: u32) -> &[u64] {
        let at = id as usize * self.width;
        &self.keys[at..at + self.width]
    }

    fn grow(&mut self) {
        let new_slots = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, NO_ID); new_slots]);
        self.mask = new_slots - 1;
        // Stored keys are distinct, so re-seating needs hashes only.
        for (h, id) in old {
            if id != NO_ID {
                let mut i = h as usize & self.mask;
                while self.slots[i].1 != NO_ID {
                    i = (i + 1) & self.mask;
                }
                self.slots[i] = (h, id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_rng::Rng64;
    use std::collections::HashMap;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = IntHashTable::new();
        assert!(t.is_empty());
        for i in 0..1000i64 {
            assert_eq!(t.insert(i * 3, i), None);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000i64 {
            assert_eq!(t.get(i * 3), Some(&i));
            assert_eq!(t.get(i * 3 + 1), None);
        }
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut t = IntHashTable::new();
        assert_eq!(t.insert(7, "a"), None);
        assert_eq!(t.insert(7, "b"), Some("a"));
        assert_eq!(t.get(7), Some(&"b"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn negative_keys_work() {
        let mut t = IntHashTable::new();
        t.insert(-5, 1);
        t.insert(-1_000_000_007, 2);
        assert_eq!(t.get(-5), Some(&1));
        assert_eq!(t.get(-1_000_000_007), Some(&2));
    }

    #[test]
    fn the_empty_marker_is_an_ordinary_key() {
        for fill in [0i64, 3, 200] {
            let mut t = IntHashTable::new();
            for i in 0..fill {
                t.insert(i, i);
            }
            assert_eq!(t.insert(EMPTY_KEY, -1), None);
            assert_eq!(t.insert(EMPTY_KEY, -2), Some(-1));
            assert_eq!(t.len(), fill as usize + 1);
            assert_eq!(t.get(EMPTY_KEY), Some(&-2));
            *t.get_mut(EMPTY_KEY).expect("present") -= 1;
            assert_eq!(*t.get_or_insert_with(EMPTY_KEY, || 0), -3);
            assert!(t.contains(EMPTY_KEY));
            assert!(t.iter().any(|(k, &v)| k == EMPTY_KEY && v == -3));
            assert_eq!(t.keys().filter(|&k| k == EMPTY_KEY).count(), 1);
            assert!((0..fill).all(|i| t.get(i) == Some(&i)), "others unmoved");
            assert_eq!(t.remove(EMPTY_KEY), Some(-3));
            assert_eq!((t.len(), t.get(EMPTY_KEY)), (fill as usize, None));
        }
    }

    #[test]
    fn reserved_key_lookups_are_absent() {
        // In an empty table and in one whose probe sequences wrap, the
        // reserved key equals the empty marker it would stop at.
        for fill in [0i64, 3, 200] {
            let mut t = IntHashTable::new();
            for i in 0..fill {
                t.insert(i, i);
            }
            assert_eq!(t.get(EMPTY_KEY), None);
            assert_eq!(t.get_mut(EMPTY_KEY), None);
            assert!(!t.contains(EMPTY_KEY));
            assert_eq!(t.remove(EMPTY_KEY), None);
            assert_eq!(t.len(), fill as usize, "nothing was removed");
            assert!((0..fill).all(|i| t.get(i) == Some(&i)));
        }
    }

    #[test]
    fn remove_backward_shift_preserves_others() {
        let mut t = IntHashTable::with_capacity(8);
        // Force collisions by filling densely.
        for i in 0..200i64 {
            t.insert(i, i * 10);
        }
        for i in (0..200i64).step_by(2) {
            assert_eq!(t.remove(i), Some(i * 10));
            assert_eq!(t.remove(i), None);
        }
        assert_eq!(t.len(), 100);
        for i in 0..200i64 {
            if i % 2 == 0 {
                assert!(!t.contains(i));
            } else {
                assert_eq!(t.get(i), Some(&(i * 10)));
            }
        }
    }

    #[test]
    fn get_or_insert_with_only_defaults_once() {
        let mut t: IntHashTable<Vec<i64>> = IntHashTable::new();
        t.get_or_insert_with(1, Vec::new).push(10);
        t.get_or_insert_with(1, || panic!("should not run"))
            .push(20);
        assert_eq!(t.get(1), Some(&vec![10, 20]));
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut t = IntHashTable::new();
        for i in 0..100i64 {
            t.insert(i, i);
        }
        let mut seen: Vec<i64> = t.iter().map(|(k, _)| k).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn randomized_against_std_hashmap() {
        let mut rng = Rng64::new(42);
        let mut ours: IntHashTable<u64> = IntHashTable::new();
        let mut reference: HashMap<i64, u64> = HashMap::new();
        for step in 0..20_000u64 {
            // The lowest key of the range stands in for the empty marker.
            let key = match rng.range_i64(-500..500) {
                -500 => EMPTY_KEY,
                k => k,
            };
            match rng.below(3) {
                0 | 1 => {
                    assert_eq!(ours.insert(key, step), reference.insert(key, step));
                }
                _ => {
                    assert_eq!(ours.remove(key), reference.remove(&key));
                }
            }
            assert_eq!(ours.len(), reference.len());
        }
        for (k, v) in &reference {
            assert_eq!(ours.get(*k), Some(v));
        }
    }

    /// `KeyInterner` tells one-word keys apart by `hash_i64` alone, so the
    /// hash must stay a bijection: undo it step by step (odd multiplies
    /// have inverses mod 2^64, `z ^ (z >> s)` unwinds `s` bits a round).
    #[test]
    fn hash_i64_is_invertible() {
        fn inv_mul(c: u64) -> u64 {
            (0..6).fold(c, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)))
            })
        }
        fn unshift(z: u64, s: u32) -> u64 {
            (0..64 / s).fold(z, |x, _| z ^ (x >> s))
        }
        let unhash = |h: u64| -> i64 {
            let z = unshift(h, 31).wrapping_mul(inv_mul(0x94d0_49bb_1331_11eb));
            let z = unshift(z, 27).wrapping_mul(inv_mul(0xbf58_476d_1ce4_e5b9));
            unshift(z, 30).wrapping_sub(0x9e37_79b9_7f4a_7c15) as i64
        };
        let mut rng = Rng64::new(11);
        let edges = [0, 1, -1, i64::MIN, i64::MAX, i64::MIN + 1, 1 << 32];
        let random = (0..10_000).map(|_| rng.i64());
        for k in edges.into_iter().chain(random) {
            assert_eq!(unhash(hash_i64(k)), k);
        }
    }

    #[test]
    fn interner_assigns_dense_ids_in_first_insertion_order() {
        let mut t = KeyInterner::with_capacity(1, 0);
        // No reserved key: 0, u64::MAX and i64::MIN's bits are ordinary.
        for (want, k) in [0u64, u64::MAX, 1 << 63, 7].into_iter().enumerate() {
            assert_eq!(t.intern(&[k]), (want as u32, true));
        }
        assert_eq!(t.intern(&[u64::MAX]), (1, false));
        assert_eq!(t.find(&[1 << 63]), Some(2));
        assert_eq!(t.find(&[8]), None);
        assert_eq!(t.len(), 4);
        assert!(t.keys.is_empty(), "one-word keys live in their hash alone");
    }

    #[test]
    fn interner_wide_keys_compare_every_word() {
        let mut t = KeyInterner::with_capacity(3, 2);
        assert_eq!(t.intern(&[1, 2, 3]), (0, true));
        assert_eq!(t.intern(&[1, 2, 4]), (1, true));
        assert_eq!(t.intern(&[3, 2, 1]), (2, true));
        assert_eq!(t.intern(&[1, 2, 3]), (0, false));
        assert_eq!(t.key(1), &[1, 2, 4]);
        assert_eq!(t.find(&[1, 2, 5]), None);
    }

    #[test]
    fn interner_randomized_against_std_hashmap() {
        for width in [1usize, 2] {
            let mut rng = Rng64::new(7);
            let mut ours = KeyInterner::with_capacity(width, 0);
            let mut reference: HashMap<Vec<u64>, u32> = HashMap::new();
            for _ in 0..50_000 {
                let key: Vec<u64> = (0..width).map(|_| rng.below(300) as u64).collect();
                let next = reference.len() as u32;
                let want = *reference.entry(key.clone()).or_insert(next);
                assert_eq!(ours.intern(&key), (want, want == next));
            }
            assert_eq!(ours.len(), reference.len());
            for (k, id) in &reference {
                assert_eq!(ours.find(k), Some(*id));
                if width > 1 {
                    assert_eq!(ours.key(*id), k.as_slice());
                }
            }
        }
    }
}
