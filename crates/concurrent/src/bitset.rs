//! Concurrent fixed-size bitset: one bit per index, packed into atomic
//! 64-bit words.
//!
//! The workhorse of frontier-style parallel algorithms: [`set`] is an
//! atomic `fetch_or` whose return value says whether *this* caller
//! flipped the bit — a wait-free claim protocol (exactly one of any
//! number of concurrent setters of the same bit wins). Membership reads
//! are one bit instead of the 4-byte distance word a dense `u32` state
//! array would touch, which is why direction-optimizing BFS keeps its
//! bottom-up frontier here.
//!
//! The claim protocol (every setter of one bit, setters of distinct bits
//! in one word) is tested on real pool threads in
//! `tests::parallel_claims_are_unique`.
//!
//! [`set`]: ConcurrentBitset::set

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-capacity bitset with atomic bit claims. See the module docs.
#[derive(Debug, Default)]
pub struct ConcurrentBitset {
    words: Vec<AtomicU64>,
    bits: usize,
}

impl ConcurrentBitset {
    /// A bitset of `bits` zeroed bits.
    pub fn new(bits: usize) -> Self {
        let words = (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, bits }
    }

    /// Capacity in bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// True when the capacity is zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Atomically sets bit `i`, returning `true` when this call flipped
    /// it from 0 to 1. Concurrent setters of the same bit agree: exactly
    /// one observes `true`.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        let mask = 1u64 << (i % 64);
        // ORDERING: Relaxed — the bit is a claim token, not a publication:
        // the fetch_or's atomicity alone decides the unique winner, and
        // any data guarded by the claim is published by the pool's
        // dispatch barrier before another phase reads it.
        let prev = self.words[i / 64].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        // ORDERING: Relaxed — membership reads race only with claims of
        // *other* bits in the word (fetch_or never clears), or run after
        // the setting phase's pool barrier.
        self.words[i / 64].load(Ordering::Relaxed) & (1u64 << (i % 64)) != 0
    }

    /// Clears every bit. Exclusive access proves no concurrent claimer
    /// exists, so this is a plain sweep.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            // ORDERING: Relaxed — counting is only meaningful after the
            // setting phase; the pool barrier orders it.
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn set_claims_exactly_once() {
        let b = ConcurrentBitset::new(130);
        assert!(!b.get(0));
        assert!(b.set(0), "first set flips the bit");
        assert!(!b.set(0), "second set does not");
        assert!(b.get(0));
        assert!(b.set(129), "last bit usable");
        assert!(b.get(129));
        assert!(!b.get(128), "neighboring bit untouched");
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn clear_resets_all_bits() {
        let mut b = ConcurrentBitset::new(70);
        for i in 0..70 {
            assert!(b.set(i));
        }
        assert_eq!(b.count_ones(), 70);
        b.clear();
        assert_eq!(b.count_ones(), 0);
        assert!(b.set(65), "cleared bits claimable again");
    }

    #[test]
    fn empty_bitset() {
        let b = ConcurrentBitset::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn parallel_claims_are_unique() {
        let bits = 10_000;
        let b = ConcurrentBitset::new(bits);
        // Every index claimed by 4 logical workers; total wins must be
        // exactly `bits`.
        let wins: usize = crate::parallel_map(4 * bits, 4, |range| {
            range.filter(|i| b.set(i % bits)).count()
        })
        .into_iter()
        .sum();
        assert_eq!(wins, bits);
        assert_eq!(b.count_ones(), bits);

        // One word: every executor claims all 64 bits, each in its own
        // order (stride `2t + 1` is odd, so a permutation), so the same bit
        // and distinct bits of the word race at once. Each round has one
        // winner a bit, and the winners partition the word. `workers`
        // chunks on `workers + 1` executors: a chunk waiting at the barrier
        // holds its executor, so each chunk runs on its own and they start
        // claiming together.
        for workers in [2, 4] {
            let pool = crate::Pool::with_workers(workers);
            let start = Barrier::new(workers);
            for round in 0..1000 {
                let b = ConcurrentBitset::new(64);
                let winners: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
                pool.run(workers, &|t| {
                    start.wait();
                    for k in 0..64 {
                        let bit = (t * 17 + k * (2 * t + 1)) % 64;
                        if b.set(bit) {
                            winners[bit].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
                for (bit, w) in winners.iter().enumerate() {
                    let w = w.load(Ordering::Relaxed);
                    assert_eq!(
                        w, 1,
                        "bit {bit}: {w} winners, {workers} workers, round {round}"
                    );
                }
                assert_eq!(b.count_ones(), 64);
            }
        }
    }
}
