//! String interning pool shared by a table's string columns.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};

/// Interns strings to dense `u32` symbols.
///
/// String columns store symbols; the pool owns each distinct string once.
/// Symbol 0 is always the empty string, so freshly grown columns are valid.
#[derive(Clone, Debug)]
pub struct StringPool {
    strings: Vec<Box<str>>,
    index: HashMap<Box<str>, u32>,
}

impl Default for StringPool {
    fn default() -> Self {
        Self::new()
    }
}

impl StringPool {
    /// Creates a pool containing only the empty string (symbol 0).
    pub fn new() -> Self {
        let mut pool = Self {
            strings: Vec::new(),
            index: HashMap::new(),
        };
        pool.intern("");
        pool
    }

    /// Returns the symbol for `s`, interning it if new.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&sym) = self.index.get(s) {
            return sym;
        }
        let sym = u32::try_from(self.strings.len()).expect("string pool overflow");
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.index.insert(boxed, sym);
        sym
    }

    /// Returns the symbol for `s` if it is already interned.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Resolves a symbol to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this pool.
    pub fn get(&self, sym: u32) -> &str {
        &self.strings[sym as usize]
    }

    /// Number of distinct interned strings (including the empty string).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when only the empty string is interned.
    pub fn is_empty(&self) -> bool {
        self.strings.len() <= 1
    }

    /// `word(text, sym)` for each symbol `sym` of this pool met in the
    /// string columns `cols`, indexed by symbol: called once per distinct
    /// symbol met. Empty when `cols` is.
    pub(crate) fn per_symbol(
        &self,
        cols: &[&[u32]],
        mut word: impl FnMut(&str, u32) -> u64,
    ) -> Vec<u64> {
        const UNSEEN: u64 = u64::MAX;
        let mut words = vec![UNSEEN; if cols.is_empty() { 0 } else { self.len() }];
        for &sym in cols.iter().copied().flatten() {
            if words[sym as usize] == UNSEEN {
                words[sym as usize] = word(self.get(sym), sym);
            }
        }
        words
    }

    /// Approximate heap footprint in bytes.
    pub fn mem_size(&self) -> usize {
        let payload: usize = self.strings.iter().map(|s| s.len()).sum();
        // Each string stored twice (vec + index key) plus map/entry overhead.
        2 * payload
            + self.strings.capacity() * std::mem::size_of::<Box<str>>()
            + self.index.capacity()
                * (std::mem::size_of::<Box<str>>() + std::mem::size_of::<u32>() + 8)
    }
}

/// The distinct strings of one stretch of input — a file chunk — numbered
/// in the order they were first met: what the loader interns into before
/// the table's [`StringPool`] takes the strings in chunk order.
///
/// Built to be filled and dropped once per chunk: strings sit end to end in
/// one buffer and the index keeps each hash beside its id, so a new string
/// costs a copy — never an allocation of its own — and growing the index
/// rehashes nothing. The hash is the standard library's keyed one, as in
/// [`StringPool`]: the strings come from a file.
#[derive(Default)]
pub(crate) struct Dict {
    hasher: RandomState,
    text: String,
    /// String `id` is `text[ends[id - 1]..ends[id]]`.
    ends: Vec<usize>,
    /// `(hash, id + 1)`, `0` marking an empty slot; a power of two long and
    /// at most half full.
    slots: Vec<(u32, u32)>,
}

impl Dict {
    /// The strings in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|id| self.get(id))
    }

    fn span(&self, id: usize) -> std::ops::Range<usize> {
        id.checked_sub(1).map_or(0, |before| self.ends[before])..self.ends[id]
    }

    fn get(&self, id: usize) -> &str {
        &self.text[self.span(id)]
    }

    /// The id of `field`, the next unused one if it is new; only a new
    /// field is checked for UTF-8 (a known one equals a checked one).
    #[inline]
    pub(crate) fn intern(&mut self, field: &[u8]) -> Result<u32, std::str::Utf8Error> {
        if (self.ends.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = self.hasher.hash_one(field) as u32;
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let (h, id1) = self.slots[at];
            if id1 == 0 {
                break;
            }
            if h == hash && self.text.as_bytes()[self.span(id1 as usize - 1)] == *field {
                return Ok(id1 - 1);
            }
            at = (at + 1) & mask;
        }
        self.text.push_str(std::str::from_utf8(field)?);
        self.ends.push(self.text.len());
        let id1 = u32::try_from(self.ends.len()).expect("a chunk has fewer than 2^32 fields");
        self.slots[at] = (hash, id1);
        Ok(id1 - 1)
    }

    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![(0, 0); (old.len() * 2).max(16)];
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|slot| slot.1 != 0) {
            let mut at = slot.0 as usize & mask;
            while self.slots[at].1 != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut p = StringPool::new();
        let a = p.intern("hello");
        let b = p.intern("hello");
        assert_eq!(a, b);
        assert_eq!(p.get(a), "hello");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn empty_string_is_symbol_zero() {
        let mut p = StringPool::new();
        assert_eq!(p.intern(""), 0);
        assert_eq!(p.get(0), "");
        assert!(p.is_empty());
    }

    #[test]
    fn lookup_does_not_intern() {
        let p = StringPool::new();
        assert_eq!(p.lookup("x"), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn dict_numbers_strings_like_a_pool_without_its_empty_string() {
        let mut rng = ringo_rng::Rng64::new(5);
        let (mut dict, mut pool) = (Dict::default(), StringPool::new());
        assert_eq!(dict.iter().count(), 0);
        for _ in 0..5_000 {
            // Few enough values to repeat, enough to regrow the index;
            // "" and multi-byte text included.
            let s = match rng.below(700) {
                0 => String::new(),
                n => format!("é{}", n * n),
            };
            let id = dict.intern(s.as_bytes()).unwrap();
            assert_eq!(id + 1, pool.intern(&format!("{s}.")), "{s:?}");
        }
        let strings: Vec<String> = dict.iter().map(|s| format!("{s}.")).collect();
        let pooled: Vec<&str> = (1..pool.len() as u32).map(|sym| pool.get(sym)).collect();
        assert_eq!(strings, pooled);
        // Bytes that are not UTF-8 are refused and leave no trace.
        assert!(dict.intern(b"a\xffb").is_err());
        assert_eq!(dict.iter().count(), strings.len());
        assert_eq!(
            dict.intern("é1".as_bytes()).ok(),
            dict.intern("é1".as_bytes()).ok()
        );
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut p = StringPool::new();
        let syms: Vec<u32> = (0..100).map(|i| p.intern(&format!("s{i}"))).collect();
        let mut dedup = syms.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100);
        for (i, sym) in syms.iter().enumerate() {
            assert_eq!(p.get(*sym), format!("s{i}"));
        }
    }
}
