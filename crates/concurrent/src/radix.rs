//! Parallel LSD radix sort for integer keys.
//!
//! The sort-first conversion pipeline (paper §2.4) and numeric `order_by`
//! spend their time sorting `i64` node ids and `(i64, i64)` edge pairs.
//! A comparison sort pays `O(n log n)` branchy comparisons for keys that
//! are plain machine integers; a least-significant-digit radix sort pays
//! `O(passes · n)` sequential memory traffic instead, and — because node
//! ids in real graphs occupy a narrow byte range — most of the eight
//! possible passes can be skipped outright.
//!
//! The algorithm per 8-bit digit pass:
//!
//! 1. **Histogram** — each worker counts the digit values of its
//!    contiguous chunk into a private 256-bucket histogram (no sharing,
//!    no atomics).
//! 2. **Prefix scan** — a sequential scan over `workers × 256` counts
//!    turns the histograms into per-worker scatter cursors: worker `w`'s
//!    cursor for digit value `v` starts at
//!    `Σ_{v'<v} total[v'] + Σ_{w'<w} hist[w'][v]`.
//! 3. **Scatter** — each worker walks its chunk in order and writes every
//!    element to `dst[cursor[digit]++]`. The cursor ranges partition the
//!    output, so writes are disjoint and lock-free; walking chunks in
//!    order makes the pass **stable**, which is what lets a pair sort run
//!    as two chained single-key sorts.
//!
//! Passes ping-pong between the input and one auxiliary buffer. A
//! histogram **pre-pass** over all digit positions finds digits whose
//! value is identical across every key (the high bytes of small node ids,
//! the sign byte of non-negative ids); those passes are skipped. Signed
//! keys are mapped to unsigned order with the bias transform
//! `x ^ i64::MIN`, which flips the sign bit so `i64::MIN..=i64::MAX` maps
//! monotonically to `0..=u64::MAX`.
//!
//! Two digit widths are used. Plain `u64`/`i64` values sort with
//! **11-bit digits** (2048-bucket histograms): fewer passes than a
//! byte-wise sort, and the histograms still fit per-worker. The keyed
//! record sort keeps 8-bit digits, where the 256-entry cursor table stays
//! cache-resident next to arbitrary-size payloads.
//!
//! The two sorts the engine's sessions spend their time in do not run
//! digit passes at all. Both reduce a row to **one `u64` whose integer
//! order is the order wanted**, made of the bits that actually vary
//! across the input, and hand a "keys of this row range" view to one
//! partition core ([`count_keys`], [`partition_sort`]): count, prefix
//! scan, one scatter by the key's top 11 bits, and a comparison sort of
//! each cache-sized bucket where it lies. The pair sort
//! ([`radix_sort_columns`]) packs `(a, b)` from two `i64` columns and
//! hands the keys back still packed — no tuple array exists before or
//! after. The row sort ([`radix_sort_rows`], under `order_by`) packs
//! `(sort columns…, row position)`; the position makes every key
//! distinct, so the unstable bucket sorts yield the stable order, and the
//! caller reads positions (and `Int` columns) back off the sorted keys
//! instead of carrying a permutation through the sort. Keys too wide for
//! one word fall back to chained stable byte-wise sorts
//! ([`SortedPairs::Wide`], `None` from the row sort).
//!
//! Because a scatter pass permutes but never changes the key multiset,
//! the per-digit totals from the pre-pass stay valid for every pass;
//! with a single worker the totals are also the (only) worker histogram,
//! so a sequential sort performs exactly one counting scan. Multiple
//! workers recount their new chunk boundaries per pass, a sequential
//! read that overlaps the scatter's pay-off.
//!
//! Inputs shorter than [`SEQ_THRESHOLD`] fall back to the standard
//! library sort, where radix setup (histograms + aux buffer) would
//! dominate.

use crate::parallel::{
    chunk_bounds, parallel_for, parallel_for_dynamic, parallel_map, DisjointSlice,
};

/// Inputs shorter than this use the standard library sort instead of the
/// radix machinery (aux buffer + `workers × 8 × 256` histogram setup).
pub const SEQ_THRESHOLD: usize = 4096;

const DIGITS: usize = 8;
const RADIX: usize = 256;
/// Digit width for the plain-`u64` value sorter. 11 bits = 2048 buckets:
/// few enough that the cursor table (16KB) and the currently-filling
/// cache line of every bucket stay resident even in a small L2, wide
/// enough that a 40-bit packed edge key sorts in four passes.
const DIGIT_BITS_V: usize = 11;
const DIGITS_V: usize = 64usize.div_ceil(DIGIT_BITS_V);
const RADIX_V: usize = 1 << DIGIT_BITS_V;

/// Order-preserving map from signed to unsigned keys: flipping the sign
/// bit sends `i64::MIN..=i64::MAX` monotonically to `0..=u64::MAX`.
#[inline(always)]
pub fn i64_key(x: i64) -> u64 {
    (x as u64) ^ (1u64 << 63)
}

/// Order-preserving map from IEEE-754 doubles to unsigned keys whose
/// `u64` order equals [`f64::total_cmp`]'s total order:
/// `-NaN < -inf < … < -0 < +0 < … < +inf < +NaN`. Negative values have
/// all bits flipped (reversing their magnitude order), non-negative
/// values only the sign bit — the same transform `total_cmp` applies
/// before its integer compare, then biased through [`i64_key`].
#[inline(always)]
pub fn f64_key(x: f64) -> u64 {
    let b = x.to_bits() as i64;
    i64_key(b ^ ((((b >> 63) as u64) >> 1) as i64))
}

#[inline(always)]
fn digit(k: u64, d: usize) -> usize {
    ((k >> (8 * d)) & 0xFF) as usize
}

#[inline(always)]
fn digitv(k: u64, d: usize) -> usize {
    ((k >> (DIGIT_BITS_V * d)) & (RADIX_V as u64 - 1)) as usize
}

/// Sorts unsigned 64-bit integers ascending.
pub fn radix_sort_u64(data: &mut [u64], threads: usize) {
    let mut sp = ringo_trace::span!("sort.radix.u64");
    sp.rows_in(data.len());
    sp.rows_out(data.len());
    if data.len() < SEQ_THRESHOLD || data.len() >= u32::MAX as usize {
        data.sort_unstable();
        return;
    }
    lsd_u64(data, threads);
}

/// Sorts signed 64-bit integers ascending (bias transform, see module
/// docs).
pub fn radix_sort_i64(data: &mut [i64], threads: usize) {
    let mut sp = ringo_trace::span!("sort.radix.i64");
    sp.rows_in(data.len());
    sp.rows_out(data.len());
    if data.len() < SEQ_THRESHOLD || data.len() >= u32::MAX as usize {
        data.sort_unstable();
        return;
    }
    // An i64 slice and a u64 slice have identical layout; bias in place,
    // sort by unsigned value, un-bias.
    let len = data.len();
    // SAFETY: same element size and alignment, same length, exclusive
    // borrow for the whole region.
    let bits: &mut [u64] =
        unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr() as *mut u64, len) };
    let flip = |bits: &mut [u64]| {
        let cell = DisjointSlice::new(bits);
        parallel_for(len, threads, |_, range| {
            // SAFETY: chunk ranges are disjoint.
            let chunk = unsafe { cell.slice_mut(range.start, range.end) };
            for x in chunk {
                *x ^= 1u64 << 63;
            }
        });
    };
    flip(bits);
    lsd_u64(bits, threads);
    flip(bits);
}

/// Edge pairs sorted by [`radix_sort_columns`], in the word they were
/// sorted in.
pub enum SortedPairs {
    /// One `u64` per pair whose integer order is the pairs' tuple order;
    /// `codec` recovers the two ids.
    Packed {
        /// The sorted keys.
        keys: Vec<u64>,
        /// The unpacker for `keys`.
        codec: PairCodec,
    },
    /// The two columns vary in more than 64 bits together, so the pairs
    /// stayed tuples.
    Wide(Vec<(i64, i64)>),
}

/// The low `bits` bits set.
fn low_mask(bits: usize) -> u64 {
    u64::MAX.checked_shr(64 - bits as u32).unwrap_or(0)
}

/// Width of the span that varies across keys whose OR and AND these are:
/// up to the highest bit set in one key and clear in another (none, if
/// there were no keys).
fn span_bits(or: u64, and: u64) -> usize {
    (64 - (or & !and).leading_zeros()) as usize
}

/// Packs an `(a, b)` id pair into the bits that vary across the input —
/// `a`'s above `b`'s, each biased by [`i64_key`] — and unpacks it again.
/// The bits that never vary are not stored in the key; the codec holds
/// their one value per component.
#[derive(Clone, Copy, Debug)]
pub struct PairCodec {
    shift: u32,
    a_mask: u64,
    b_mask: u64,
    /// Constant high bits of each component, sign-bias already undone.
    a_fix: u64,
    b_fix: u64,
}

impl PairCodec {
    /// `a_and` / `b_and` are the ANDs of every biased key of a component:
    /// above the varying span they hold the constant bits.
    fn new(bits_a: usize, bits_b: usize, a_and: u64, b_and: u64) -> Self {
        let (a_mask, b_mask) = (low_mask(bits_a), low_mask(bits_b));
        Self {
            // `bits_b == 64` forces `a_mask == 0`, so the wrapped shift
            // amount only ever moves zeros.
            shift: bits_b as u32,
            a_mask,
            b_mask,
            a_fix: (a_and & !a_mask) ^ (1u64 << 63),
            b_fix: (b_and & !b_mask) ^ (1u64 << 63),
        }
    }

    #[inline(always)]
    fn pack(&self, a: i64, b: i64) -> u64 {
        (i64_key(a) & self.a_mask).wrapping_shl(self.shift) | (i64_key(b) & self.b_mask)
    }

    /// The leading id of a packed pair.
    #[inline(always)]
    pub fn first(&self, key: u64) -> i64 {
        ((key.wrapping_shr(self.shift) & self.a_mask) ^ self.a_fix) as i64
    }

    /// The trailing id of a packed pair.
    #[inline(always)]
    pub fn second(&self, key: u64) -> i64 {
        ((key & self.b_mask) ^ self.b_fix) as i64
    }
}

/// OR and AND of every biased key seen, per component: bit `i` varies
/// across the input exactly where the two differ.
#[derive(Clone, Copy)]
struct Masks {
    a_or: u64,
    a_and: u64,
    b_or: u64,
    b_and: u64,
}

impl Masks {
    const EMPTY: Masks = Masks {
        a_or: 0,
        a_and: !0,
        b_or: 0,
        b_and: !0,
    };

    #[inline(always)]
    fn add(&mut self, a: i64, b: i64) {
        let (ak, bk) = (i64_key(a), i64_key(b));
        self.a_or |= ak;
        self.a_and &= ak;
        self.b_or |= bk;
        self.b_and &= bk;
    }

    fn merge(&mut self, o: &Masks) {
        self.a_or |= o.a_or;
        self.a_and &= o.a_and;
        self.b_or |= o.b_or;
        self.b_and &= o.b_and;
    }

    /// Width of each component's varying span.
    fn spans(&self) -> (usize, usize) {
        (
            span_bits(self.a_or, self.a_and),
            span_bits(self.b_or, self.b_and),
        )
    }
}

/// Sorts the pairs `(a[i], b[i])` in full lexicographic order without
/// ever materializing them — the sort the conversion pipeline runs
/// straight off a table's two edge columns. With `symmetric`, every row
/// with `a[i] != b[i]` also contributes `(b[i], a[i])`: the key multiset
/// of an undirected graph.
///
/// A mask probe finds each component's varying-bit span (bits above it
/// are constant across the input — node ids in practice occupy a narrow
/// range, so most of each `i64` never varies). When the two spans fit in
/// one u64 together, each pair packs into one order-preserving key
/// ([`PairCodec`]) and a single **MSD partition pass** reads the columns
/// and scatters the keys into up to 2048 buckets by their top varying
/// bits: bucket order equals tuple order, every bucket is small enough
/// to finish in place with a cache-resident comparison sort, and the
/// whole sort touches DRAM a constant number of times instead of once
/// per digit. The keys are returned as they are; the caller unpacks what
/// it needs while it walks them. The spans are guessed from a sample and
/// verified during the counting pass (full masks come along for free); a
/// bad guess — some high bit varies so rarely the sample missed it —
/// just recounts with the corrected spans. Pairs whose spans exceed 64
/// bits together are materialized as tuples and sorted by two chained
/// stable single-key LSD sorts: first by the second component, then by
/// the first; stability of the second pass preserves the first pass's
/// order among equal leading keys.
///
/// # Panics
/// Panics if the columns differ in length.
pub fn radix_sort_columns(a: &[i64], b: &[i64], symmetric: bool, threads: usize) -> SortedPairs {
    assert_eq!(a.len(), b.len(), "edge columns must have equal length");
    let len = a.len();
    let max_keys = if symmetric { 2 * len } else { len };
    let mut sp = ringo_trace::span!("sort.radix.pairs");
    sp.rows_in(len);

    // Short inputs (and ones whose bucket counts would overflow the u32
    // histograms) pack with exact masks and finish with one std sort.
    if len < SEQ_THRESHOLD || max_keys >= u32::MAX as usize {
        let mut masks = Masks::EMPTY;
        each_pair(a, b, 0..len, symmetric, |s, d| masks.add(s, d));
        let (bits_a, bits_b) = masks.spans();
        if bits_a + bits_b > 64 {
            let mut pairs = wide_pairs(a, b, symmetric);
            pairs.sort_unstable();
            sp.rows_out(pairs.len());
            return SortedPairs::Wide(pairs);
        }
        let codec = PairCodec::new(bits_a, bits_b, masks.a_and, masks.b_and);
        let mut keys = Vec::with_capacity(max_keys);
        each_pair(a, b, 0..len, symmetric, |s, d| keys.push(codec.pack(s, d)));
        keys.sort_unstable();
        sp.rows_out(keys.len());
        return SortedPairs::Packed { keys, codec };
    }

    // One cheap sequential scan makes already-sorted input (a graph's own
    // edge table coming back) a parallel pack instead of a partition
    // cycle. A symmetric sort interleaves the reversed pairs, so sorted
    // columns do not help it.
    let sorted = !symmetric && a.iter().zip(b).is_sorted();

    // Guess the varying spans from a strided sample.
    let mut guess = Masks::EMPTY;
    for i in (0..len).step_by((len / 512).max(1)) {
        each_pair(a, b, i..i + 1, symmetric, |s, d| guess.add(s, d));
    }
    let (mut bits_a, mut bits_b) = guess.spans();

    // Counting pass: bucket histograms plus the full masks that verify
    // the sampled spans. A span the sample underestimated forces one
    // recount with the corrected bucket function.
    let (hist, src) = loop {
        if bits_a + bits_b > 64 {
            // Spans too wide to combine: chained stable LSD sorts.
            let mut pairs = wide_pairs(a, b, symmetric);
            if !sorted {
                lsd_by_key(&mut pairs, threads, &|p: &(i64, i64)| i64_key(p.1));
                lsd_by_key(&mut pairs, threads, &|p: &(i64, i64)| i64_key(p.0));
            }
            sp.rows_out(pairs.len());
            return SortedPairs::Wide(pairs);
        }
        // Packing reads only the spans; the constant bits wait for the
        // verified masks below.
        let codec = PairCodec::new(bits_a, bits_b, 0, 0);
        let probe = PairKeys {
            a,
            b,
            symmetric,
            codec,
        };
        let hist = count_keys(&probe, len, threads, bits_a + bits_b);
        let mut full = Masks::EMPTY;
        for (_, m) in &hist {
            full.merge(m);
        }
        let (full_a, full_b) = full.spans();
        if full_a > bits_a || full_b > bits_b {
            (bits_a, bits_b) = (full_a, full_b);
            continue;
        }
        let codec = PairCodec::new(bits_a, bits_b, full.a_and, full.b_and);
        break (hist, PairKeys { codec, ..probe });
    };
    let codec = src.codec;

    let keys = if sorted {
        let mut keys = vec![0u64; len];
        let cell = DisjointSlice::new(&mut keys);
        parallel_for(len, threads, |_, range| {
            // SAFETY: chunk ranges are disjoint.
            let out = unsafe { cell.slice_mut(range.start, range.end) };
            for (k, i) in out.iter_mut().zip(range) {
                *k = codec.pack(a[i], b[i]);
            }
        });
        keys
    } else {
        partition_sort(&src, len, threads, bits_a + bits_b, &hist)
    };
    debug_assert!(len <= keys.len() && keys.len() <= max_keys);
    sp.rows_out(keys.len());
    SortedPairs::Packed { keys, codec }
}

/// The two edge columns as the partition core reads them: one packed key
/// per pair [`each_pair`] yields, and the span masks of what was read.
struct PairKeys<'a> {
    a: &'a [i64],
    b: &'a [i64],
    symmetric: bool,
    codec: PairCodec,
}

impl Keys for PairKeys<'_> {
    type Seen = Masks;

    #[inline(always)]
    fn each(&self, rows: std::ops::Range<usize>, mut f: impl FnMut(u64)) -> Masks {
        let mut m = Masks::EMPTY;
        each_pair(self.a, self.b, rows, self.symmetric, |s, d| {
            m.add(s, d);
            f(self.codec.pack(s, d));
        });
        m
    }
}

/// Calls `f` with the pairs [`radix_sort_columns`] sorts that come from
/// `rows`: `(a[i], b[i])` and, when `symmetric`, its reversal unless the
/// two ids are equal.
#[inline(always)]
fn each_pair(
    a: &[i64],
    b: &[i64],
    rows: std::ops::Range<usize>,
    symmetric: bool,
    mut f: impl FnMut(i64, i64),
) {
    for i in rows {
        let (s, d) = (a[i], b[i]);
        f(s, d);
        if symmetric && s != d {
            f(d, s);
        }
    }
}

/// The pairs of [`radix_sort_columns`] as tuples, for ids too wide to
/// pack.
fn wide_pairs(a: &[i64], b: &[i64], symmetric: bool) -> Vec<(i64, i64)> {
    let mut pairs = Vec::with_capacity(if symmetric { 2 * a.len() } else { a.len() });
    each_pair(a, b, 0..a.len(), symmetric, |s, d| pairs.push((s, d)));
    pairs
}

/// Rows that show themselves to the partition core as packed `u64` keys
/// whose integer order is the order wanted. The core never holds the
/// rows: it asks for "the keys of this row range" once to count and once
/// to scatter, and the source reads its columns where they lie.
trait Keys: Sync {
    /// What a walk learns beside the keys (the pair sorter's span masks).
    type Seen: Send;

    /// Calls `f` with every key of `rows`, in row order.
    fn each(&self, rows: std::ops::Range<usize>, f: impl FnMut(u64)) -> Self::Seen;
}

/// Bits of a `total_bits`-wide key that pick its bucket, and the shift
/// that brings them down.
fn bucket_split(total_bits: usize) -> (usize, u32) {
    let bucket_bits = DIGIT_BITS_V.min(total_bits);
    (bucket_bits, (total_bits - bucket_bits) as u32)
}

/// Counting pass of the partition core: per-worker histograms of the
/// keys' top bits, and whatever each worker's walk saw.
// LINT: hot — exact-size buffers only (`vec![…]`/`with_capacity` stay legal).
fn count_keys<K: Keys>(
    src: &K,
    len: usize,
    threads: usize,
    total_bits: usize,
) -> Vec<(Vec<u32>, K::Seen)> {
    if ringo_trace::enabled() {
        ringo_trace::counter("sort.radix.passes").add(1);
    }
    let (bucket_bits, down) = bucket_split(total_bits);
    parallel_map(len, threads, |range| {
        let mut h = vec![0u32; 1 << bucket_bits];
        let seen = src.each(range, |key| h[key.wrapping_shr(down) as usize] += 1);
        (h, seen)
    })
}

/// The partition core proper, after [`count_keys`] over the same rows:
/// prefix scan, one **MSD partition pass** that scatters every key into
/// up to 2048 order-aligned buckets by its top bits, and a finish that
/// sorts each bucket where it lies. The whole sort touches DRAM a
/// constant number of times instead of once per digit.
// LINT: hot — exact-size buffers only (`vec![…]`/`with_capacity` stay legal).
fn partition_sort<K: Keys>(
    src: &K,
    len: usize,
    threads: usize,
    total_bits: usize,
    hist: &[(Vec<u32>, K::Seen)],
) -> Vec<u64> {
    // Prefix scan → bucket offsets and per-worker scatter cursors.
    let (bucket_bits, down) = bucket_split(total_bits);
    let buckets = 1usize << bucket_bits;
    let workers = hist.len();
    let mut offsets = vec![0usize; buckets + 1];
    for b in 0..buckets {
        let mut sum = offsets[b];
        for (h, _) in hist {
            sum += h[b] as usize;
        }
        offsets[b + 1] = sum;
    }
    let n_keys = offsets[buckets];
    let mut cursors = vec![0usize; workers * buckets];
    {
        let mut run = offsets[..buckets].to_vec();
        for (w, (h, _)) in hist.iter().enumerate() {
            cursors[w * buckets..(w + 1) * buckets].copy_from_slice(&run);
            for (v, r) in run.iter_mut().enumerate() {
                *r += h[v] as usize;
            }
        }
    }

    // Partition pass: every key, packed straight off the columns, goes to
    // its bucket range.
    let mut keys: Vec<u64> = vec![0u64; n_keys];
    let keys_cell = DisjointSlice::new(&mut keys);
    {
        let cursor_cell = DisjointSlice::new(&mut cursors);
        parallel_for(len, threads, |w, range| {
            // SAFETY: each worker touches only its own cursor row.
            let cur = unsafe { cursor_cell.slice_mut(w * buckets, (w + 1) * buckets) };
            src.each(range, |key| {
                let b = key.wrapping_shr(down) as usize;
                // SAFETY: cursor ranges partition `0..n_keys`.
                unsafe { keys_cell.write(cur[b], key) };
                cur[b] += 1;
            });
        });
    }

    // Finish pass: each bucket holds a narrow, cache-sized key range;
    // sort it where it lies. When the bucket index already consumed
    // every varying bit, buckets are all-equal and nothing remains.
    // Buckets are claimed *dynamically* from the pool's shared counter
    // rather than cut into static contiguous runs: skewed data (an R-MAT
    // hub vertex can own a bucket holding a large fraction of all edges)
    // would otherwise serialize a whole chunk of buckets behind the one
    // hot bucket.
    if total_bits > bucket_bits {
        parallel_for_dynamic(buckets, threads, |b| {
            // SAFETY: bucket ranges are disjoint.
            unsafe { keys_cell.slice_mut(offsets[b], offsets[b + 1]) }.sort_unstable();
        });
    }
    keys
}

/// One numeric sort column of [`radix_sort_rows`], read where it lies.
#[derive(Clone, Copy, Debug)]
pub enum SortColumn<'a> {
    /// Ordered as integers.
    Int(&'a [i64]),
    /// Ordered by [`f64::total_cmp`].
    Float(&'a [f64]),
}

impl SortColumn<'_> {
    fn len(&self) -> usize {
        match self {
            Self::Int(v) => v.len(),
            Self::Float(v) => v.len(),
        }
    }

    /// Calls `f(j, key)` for every position `j` of `rows` with the
    /// order-preserving key of the row there (`sel[j]`, or `j` itself):
    /// one typed loop per column type and kind of selection.
    #[inline(always)]
    fn each_word(
        &self,
        rows: std::ops::Range<usize>,
        sel: Option<&[u32]>,
        mut f: impl FnMut(usize, u64),
    ) {
        match (self, sel) {
            (Self::Int(v), None) => rows.for_each(|j| f(j, i64_key(v[j]))),
            (Self::Int(v), Some(s)) => rows.for_each(|j| f(j, i64_key(v[s[j] as usize]))),
            (Self::Float(v), None) => rows.for_each(|j| f(j, f64_key(v[j]))),
            (Self::Float(v), Some(s)) => rows.for_each(|j| f(j, f64_key(v[s[j] as usize]))),
        }
    }
}

/// Where one sort column sits in a row key: `mask` over its varying bits,
/// moved up by `shift`.
#[derive(Clone, Copy, Debug)]
struct Field {
    shift: u32,
    mask: u64,
    /// XOR that turns the stored bits back into the column's `i64`: the
    /// constant high bits, the descending complement and the sign bias.
    fix: u64,
}

/// Unpacks the keys [`radix_sort_rows`] sorted: `(columns…, position)`,
/// first column highest, each column reduced to the bits that vary.
#[derive(Clone, Debug)]
pub struct RowCodec {
    fields: Vec<Field>,
    pos_mask: u64,
}

impl RowCodec {
    /// Where the row stood before the sort: its index into `sel`, or its
    /// row number.
    #[inline(always)]
    pub fn position(&self, key: u64) -> usize {
        (key & self.pos_mask) as usize
    }

    /// The value of the `col`-th sort column in the key's row, if that
    /// column is [`SortColumn::Int`].
    #[inline(always)]
    pub fn int(&self, col: usize, key: u64) -> i64 {
        let f = self.fields[col];
        ((key.wrapping_shr(f.shift) & f.mask) ^ f.fix) as i64
    }
}

/// Rows sorted by [`radix_sort_rows`], each still the word it was sorted
/// in.
pub struct SortedRows {
    /// The sorted keys, one per row.
    pub keys: Vec<u64>,
    /// The unpacker for `keys`.
    pub codec: RowCodec,
}

/// The sort columns as the partition core reads them: one key per row.
struct RowKeys<'a> {
    cols: &'a [SortColumn<'a>],
    sel: Option<&'a [u32]>,
    fields: &'a [Field],
    /// All ones when descending: complements every column's key.
    flip: u64,
}

impl Keys for RowKeys<'_> {
    type Seen = ();

    /// Keys are built a block at a time, column by column, so every inner
    /// loop is typed and the block stays in L1.
    #[inline(always)]
    fn each(&self, rows: std::ops::Range<usize>, mut f: impl FnMut(u64)) {
        const BLOCK: usize = 1024;
        let mut block = [0u64; BLOCK];
        for start in rows.clone().step_by(BLOCK) {
            let out = &mut block[..BLOCK.min(rows.end - start)];
            for (j, o) in out.iter_mut().enumerate() {
                *o = (start + j) as u64;
            }
            for (col, field) in self.cols.iter().zip(self.fields) {
                col.each_word(start..start + out.len(), self.sel, |j, w| {
                    out[j - start] |= ((w ^ self.flip) & field.mask).wrapping_shl(field.shift);
                });
            }
            out.iter().for_each(|&key| f(key));
        }
    }
}

/// Sorts the rows of `sel` (every row when `None`) by `cols` — first
/// column first, ties by the next, then by position in `sel` — as **one**
/// sort of one `u64` per row: each column's order-preserving key
/// ([`i64_key`] / [`f64_key`], complemented when descending) reduced to
/// the bits that vary across the rows, above the row's position in
/// `ceil(log2 n)` bits. The position makes every key distinct, so the
/// partition core's unstable bucket sorts cannot reorder anything: the
/// result is the stable order. The sorted keys come back as they are;
/// [`RowCodec::position`] says where each row stood and
/// [`RowCodec::int`] what an `Int` column held, so a caller that owns the
/// columns can decode them in place instead of gathering them.
///
/// Returns `None` when the columns' varying bits and the position do not
/// fit 64 bits together (ids of both signs, full-range hashes, doubles of
/// many magnitudes): the caller keeps its chained stable sorts.
pub fn radix_sort_rows(
    cols: &[SortColumn<'_>],
    ascending: bool,
    sel: Option<&[u32]>,
    threads: usize,
) -> Option<SortedRows> {
    let len = sel.map_or(cols.first().map_or(0, SortColumn::len), <[u32]>::len);
    let mut sp = ringo_trace::span!("sort.radix.rows");
    sp.rows_in(len);
    sp.rows_out(len);

    // OR and AND of every key, per column: the exact varying spans.
    let spans = parallel_map(len, threads, |range| {
        let span_of = |col: &SortColumn<'_>| {
            let (mut or, mut and) = (0u64, !0u64);
            col.each_word(range.clone(), sel, |_, w| {
                or |= w;
                and &= w;
            });
            (or, and)
        };
        cols.iter().map(span_of).collect::<Vec<_>>()
    })
    .into_iter()
    .reduce(|a, b| {
        let merged = a.iter().zip(&b).map(|(x, y)| (x.0 | y.0, x.1 & y.1));
        merged.collect()
    })
    .unwrap_or_else(|| vec![(0, !0); cols.len()]);

    let flip = if ascending { 0 } else { !0u64 };
    let pos_bits = span_bits(len.saturating_sub(1) as u64, 0);
    let mut total_bits = pos_bits;
    let mut fields: Vec<Field> = spans
        .iter()
        .rev()
        .map(|&(or, and)| {
            let mask = low_mask(span_bits(or, and));
            let field = Field {
                // A shift of 64 wraps to 0, and only ever moves a zero mask.
                shift: total_bits as u32,
                mask,
                fix: (flip & mask) ^ (and & !mask) ^ (1u64 << 63),
            };
            total_bits += span_bits(or, and);
            field
        })
        .collect();
    fields.reverse();
    if total_bits > 64 {
        return None;
    }
    let src = RowKeys {
        cols,
        sel,
        fields: &fields,
        flip,
    };

    // Short inputs (and ones whose bucket counts would overflow the u32
    // histograms) take one std sort.
    let keys = if len < SEQ_THRESHOLD || len >= u32::MAX as usize {
        let mut keys = Vec::with_capacity(len);
        src.each(0..len, |key| keys.push(key));
        keys.sort_unstable();
        keys
    } else {
        let hist = count_keys(&src, len, threads, total_bits);
        partition_sort(&src, len, threads, total_bits, &hist)
    };
    let codec = RowCodec {
        fields,
        pos_mask: low_mask(pos_bits),
    };
    Some(SortedRows { keys, codec })
}

/// **Stable** sort of arbitrary `Copy` records by an extracted `u64` key.
/// This is the entry point integer `order_by` uses on `(key, row)` pairs;
/// the small-input fallback is the standard library's *stable* sort so the
/// stability contract holds at every size.
pub fn radix_sort_by_u64_key<T, F>(data: &mut [T], threads: usize, key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let mut sp = ringo_trace::span!("sort.radix.key");
    sp.rows_in(data.len());
    sp.rows_out(data.len());
    if data.len() < SEQ_THRESHOLD {
        data.sort_by_key(|a| key(a));
        return;
    }
    lsd_by_key(data, threads, &key);
}

/// LSD core for plain `u64` values: 11-bit digits (see [`DIGIT_BITS_V`]).
/// One pre-pass counts every position; constant positions are skipped;
/// with a single worker no further counting scans run at all (the totals
/// are the worker histogram of every arrangement). Callers gate on
/// [`SEQ_THRESHOLD`] and the `u32` count limit.
// LINT: hot — exact-size buffers only (`vec![…]`/`with_capacity` stay legal).
fn lsd_u64(data: &mut [u64], threads: usize) {
    let len = data.len();
    let bounds = chunk_bounds(len, threads);
    let workers = bounds.len() - 1;

    // Pre-pass: per-worker histograms of all positions in one scan.
    let pre: Vec<Box<[u32]>> = parallel_map(len, threads, |range| {
        let mut h = vec![0u32; DIGITS_V * RADIX_V].into_boxed_slice();
        for i in range {
            let k = data[i];
            for d in 0..DIGITS_V {
                h[d * RADIX_V + digitv(k, d)] += 1;
            }
        }
        h
    });
    debug_assert_eq!(pre.len(), workers);

    let mut totals = vec![0u32; DIGITS_V * RADIX_V];
    for h in &pre {
        for (t, c) in totals.iter_mut().zip(h.iter()) {
            *t += c;
        }
    }
    let active: Vec<usize> = (0..DIGITS_V)
        .filter(|&d| {
            !totals[d * RADIX_V..(d + 1) * RADIX_V]
                .iter()
                .any(|&t| t as usize == len)
        })
        .collect();
    if ringo_trace::enabled() {
        ringo_trace::counter("sort.radix.passes").add(active.len() as u64);
        ringo_trace::counter("sort.radix.digits_skipped").add((DIGITS_V - active.len()) as u64);
    }
    if active.is_empty() {
        return;
    }

    let mut aux: Vec<u64> = data.to_vec();
    let data_cell = DisjointSlice::new(data);
    let aux_cell = DisjointSlice::new(&mut aux);
    let mut in_data = true;

    for (pass, &d) in active.iter().enumerate() {
        let (src_cell, dst_cell) = if in_data {
            (&data_cell, &aux_cell)
        } else {
            (&aux_cell, &data_cell)
        };
        // SAFETY: the source buffer is only read during this pass.
        let src: &[u64] = unsafe { src_cell.slice_mut(0, len) };

        // Per-worker histogram of this position for the current
        // arrangement. The totals are permutation-invariant, so one
        // worker never recounts; several workers recount after the first
        // pass because their chunk boundaries now hold different keys.
        let hist: Vec<Vec<u32>> = if workers == 1 {
            vec![totals[d * RADIX_V..(d + 1) * RADIX_V].to_vec()]
        } else if pass == 0 {
            pre.iter()
                .map(|h| h[d * RADIX_V..(d + 1) * RADIX_V].to_vec())
                .collect()
        } else {
            parallel_map(len, threads, |range| {
                let mut h = vec![0u32; RADIX_V];
                for i in range {
                    h[digitv(src[i], d)] += 1;
                }
                h
            })
        };

        // Prefix scan → per-worker scatter cursors, one flat row per
        // worker so each can advance its own cursors in place.
        let mut cursors = vec![0usize; workers * RADIX_V];
        {
            let mut run = vec![0usize; RADIX_V];
            let mut sum = 0usize;
            for (v, r) in run.iter_mut().enumerate() {
                *r = sum;
                sum += totals[d * RADIX_V + v] as usize;
            }
            debug_assert_eq!(sum, len);
            for (w, h) in hist.iter().enumerate() {
                cursors[w * RADIX_V..(w + 1) * RADIX_V].copy_from_slice(&run);
                for (v, r) in run.iter_mut().enumerate() {
                    *r += h[v] as usize;
                }
            }
        }
        let cursor_cell = DisjointSlice::new(&mut cursors);

        parallel_for(len, threads, |w, range| {
            // SAFETY: each worker touches only its own cursor row.
            let cur = unsafe { cursor_cell.slice_mut(w * RADIX_V, (w + 1) * RADIX_V) };
            for i in range {
                let x = src[i];
                let v = digitv(x, d);
                // SAFETY: cursor ranges partition `0..len` across workers
                // and digit values; each index is written exactly once.
                unsafe { dst_cell.write(cur[v], x) };
                cur[v] += 1;
            }
        });
        in_data = !in_data;
    }

    if !in_data {
        data.copy_from_slice(&aux);
    }
}

/// The LSD core: histogram pre-pass, digit skipping, ping-pong passes.
/// Stable. Callers gate on [`SEQ_THRESHOLD`].
// LINT: hot — exact-size buffers only (`vec![…]`/`with_capacity` stay legal).
fn lsd_by_key<T, F>(data: &mut [T], threads: usize, key: &F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let len = data.len();
    if len >= u32::MAX as usize {
        // Per-worker histograms count in u32; inputs this large (≥ 64GB of
        // pairs) take the comparison path rather than widening every count.
        data.sort_by_key(|a| key(a));
        return;
    }
    let bounds = chunk_bounds(len, threads);
    let workers = bounds.len() - 1;

    // Pre-pass: per-worker histograms of all eight digits in one scan.
    let pre: Vec<Box<[u32]>> = parallel_map(len, threads, |range| {
        let mut h = vec![0u32; DIGITS * RADIX].into_boxed_slice();
        for i in range {
            let k = key(&data[i]);
            for d in 0..DIGITS {
                h[d * RADIX + digit(k, d)] += 1;
            }
        }
        h
    });
    debug_assert_eq!(pre.len(), workers);

    // Global totals per digit; a digit where one value owns every key
    // would be a pure copy pass — skip it.
    let mut active: Vec<usize> = Vec::with_capacity(DIGITS);
    let mut totals = [[0u32; RADIX]; DIGITS];
    for (d, total) in totals.iter_mut().enumerate() {
        for h in &pre {
            for (v, t) in total.iter_mut().enumerate() {
                *t += h[d * RADIX + v];
            }
        }
        if !total.iter().any(|&t| t as usize == len) {
            active.push(d);
        }
    }
    if ringo_trace::enabled() {
        ringo_trace::counter("sort.radix.passes").add(active.len() as u64);
        ringo_trace::counter("sort.radix.digits_skipped").add((DIGITS - active.len()) as u64);
    }
    if active.is_empty() {
        return; // all keys equal: already sorted, stability trivially holds
    }

    // T: Copy makes the clone a memcpy; contents are overwritten before
    // they are read except by the skipped-digit parity copy at the end.
    let mut aux: Vec<T> = data.to_vec();
    let data_cell = DisjointSlice::new(data);
    let aux_cell = DisjointSlice::new(&mut aux);
    let mut in_data = true;

    for (pass, &d) in active.iter().enumerate() {
        let (src_cell, dst_cell) = if in_data {
            (&data_cell, &aux_cell)
        } else {
            (&aux_cell, &data_cell)
        };
        // SAFETY: the source buffer is only read during this pass; all
        // writes of the pass go to the other buffer.
        let src: &[T] = unsafe { src_cell.slice_mut(0, len) };

        // Per-worker histogram for this digit. The totals never change
        // (a scatter permutes the keys), so a single worker reuses them
        // for every pass; several workers reuse the pre-pass split only
        // for the first pass and recount after the data has moved.
        let hist: Vec<[u32; RADIX]> = if workers == 1 {
            vec![totals[d]]
        } else if pass == 0 {
            pre.iter()
                .map(|h| {
                    let mut row = [0u32; RADIX];
                    row.copy_from_slice(&h[d * RADIX..(d + 1) * RADIX]);
                    row
                })
                .collect()
        } else {
            parallel_map(len, threads, |range| {
                let mut h = [0u32; RADIX];
                for i in range {
                    h[digit(key(&src[i]), d)] += 1;
                }
                h
            })
        };

        // Prefix scan → per-worker scatter cursors.
        let mut run = [0usize; RADIX];
        {
            let mut sum = 0usize;
            for (v, r) in run.iter_mut().enumerate() {
                *r = sum;
                sum += totals[d][v] as usize;
            }
            debug_assert_eq!(sum, len);
        }
        let mut cursors: Vec<[usize; RADIX]> = Vec::with_capacity(workers);
        for h in &hist {
            cursors.push(run);
            for (v, r) in run.iter_mut().enumerate() {
                *r += h[v] as usize;
            }
        }

        parallel_for(len, threads, |w, range| {
            let mut cur = cursors[w];
            for i in range {
                let x = src[i];
                let v = digit(key(&x), d);
                // SAFETY: cursor ranges partition `0..len` across workers
                // and digit values; each index is written exactly once.
                unsafe { dst_cell.write(cur[v], x) };
                cur[v] += 1;
            }
        });
        in_data = !in_data;
    }

    if !in_data {
        data.copy_from_slice(&aux);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_rng::Rng64;

    fn check_i64(data: &mut Vec<i64>, threads: usize, ctx: &str) {
        let mut expect = data.clone();
        expect.sort_unstable();
        radix_sort_i64(data, threads);
        assert_eq!(*data, expect, "{ctx}");
    }

    #[test]
    fn small_inputs_fall_back() {
        for len in [0usize, 1, 2, 100, SEQ_THRESHOLD - 1] {
            let mut rng = Rng64::new(len as u64);
            let mut data: Vec<i64> = (0..len).map(|_| rng.i64()).collect();
            check_i64(&mut data, 4, &format!("len={len}"));
        }
    }

    #[test]
    fn sorts_u64_full_range() {
        let mut rng = Rng64::new(7);
        let mut data: Vec<u64> = (0..50_000).map(|_| rng.u64()).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        radix_sort_u64(&mut data, 4);
        assert_eq!(data, expect);
    }

    #[test]
    fn sorts_i64_negative_and_extremes() {
        let mut rng = Rng64::new(11);
        let mut data: Vec<i64> = (0..30_000).map(|_| rng.range_i64(-500..500)).collect();
        data.extend([i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX]);
        check_i64(&mut data, 4, "negatives + extremes");
    }

    #[test]
    fn all_equal_and_duplicates_heavy() {
        let mut all_equal = vec![42i64; 20_000];
        check_i64(&mut all_equal, 4, "all equal");
        let mut dups: Vec<i64> = (0..20_000).map(|i| (i % 3) - 1).collect();
        check_i64(&mut dups, 3, "duplicates");
    }

    #[test]
    fn presorted_and_reversed() {
        let mut asc: Vec<i64> = (0..30_000).collect();
        check_i64(&mut asc, 4, "presorted");
        let mut desc: Vec<i64> = (0..30_000).rev().collect();
        check_i64(&mut desc, 4, "reversed");
    }

    #[test]
    fn columns_match_std_full_ord() {
        let mut rng = Rng64::new(23);
        // Mixed signs vary in all 64 bits of each biased key (wide, tuple
        // sort); one sign packs.
        for (range, packs) in [(-100..100, false), (0..200, true)] {
            for threads in [1usize, 2, 4] {
                let a: Vec<i64> = (0..40_000).map(|_| rng.range_i64(range.clone())).collect();
                let b: Vec<i64> = (0..40_000).map(|_| rng.range_i64(range.clone())).collect();
                let mut expect: Vec<(i64, i64)> =
                    a.iter().copied().zip(b.iter().copied()).collect();
                expect.sort_unstable();
                let got = match radix_sort_columns(&a, &b, false, threads) {
                    SortedPairs::Packed { keys, codec } => {
                        assert!(packs, "mixed signs cannot pack");
                        keys.iter()
                            .map(|&k| (codec.first(k), codec.second(k)))
                            .collect()
                    }
                    SortedPairs::Wide(pairs) => {
                        assert!(!packs, "narrow ids must pack");
                        pairs
                    }
                };
                assert_eq!(got, expect, "threads={threads} packs={packs}");
            }
        }
    }

    #[test]
    fn rows_sort_stably_and_decode() {
        for len in [0usize, 1, 100, SEQ_THRESHOLD + 1000, 40_000] {
            let mut rng = Rng64::new(len as u64);
            let a: Vec<i64> = (0..len).map(|_| rng.range_i64(-20..-4)).collect();
            let one = 1.0f64.to_bits();
            let b: Vec<f64> = (0..len)
                .map(|_| f64::from_bits(one + rng.below(64) as u64))
                .collect();
            // Every third row, last first: ties must keep *this* order.
            let sel: Vec<u32> = (0..len as u32).rev().step_by(3).collect();
            let cols = [SortColumn::Int(&a), SortColumn::Float(&b)];
            for (sel, ascending, threads) in [
                (None, true, 1),
                (None, false, 4),
                (Some(&sel[..]), true, 2),
                (Some(&sel[..]), false, 3),
            ] {
                let ctx = format!("len={len} sel={} asc={ascending}", sel.is_some());
                let n = sel.map_or(len, <[u32]>::len);
                let row = |at: usize| sel.map_or(at, |s| s[at] as usize);
                let mut expect: Vec<usize> = (0..n).collect();
                expect.sort_by(|&x, &y| {
                    let (x, y) = if ascending { (x, y) } else { (y, x) };
                    let (x, y) = (row(x), row(y));
                    a[x].cmp(&a[y]).then(b[x].total_cmp(&b[y]))
                });
                let SortedRows { keys, codec } =
                    radix_sort_rows(&cols, ascending, sel, threads).expect("4 + 6 bits pack");
                let got: Vec<usize> = keys.iter().map(|&k| codec.position(k)).collect();
                assert_eq!(got, expect, "{ctx}");
                for (&k, &at) in keys.iter().zip(&expect) {
                    assert_eq!(codec.int(0, k), a[row(at)], "{ctx}");
                }
            }
        }
    }

    #[test]
    fn rows_too_wide_for_a_position_are_declined() {
        // 63 varying bits beside the one position bit of two rows fit; a
        // third row needs a second bit.
        let wide = [0i64, i64::MAX, 1];
        assert!(radix_sort_rows(&[SortColumn::Int(&wide[..2])], true, None, 1).is_some());
        assert!(radix_sort_rows(&[SortColumn::Int(&wide)], true, None, 1).is_none());
        // A constant column is free, whatever its value.
        let (min, any) = ([i64::MIN; 3], [5i64, -5, 0]);
        let cols = [SortColumn::Int(&min), SortColumn::Int(&any)];
        assert!(radix_sort_rows(&cols[..1], false, None, 1).is_some());
        assert!(
            radix_sort_rows(&cols, false, None, 1).is_none(),
            "both signs"
        );
    }

    #[test]
    fn by_key_is_stable() {
        // Payloads record the original order; equal keys must keep it at
        // every size (fallback and radix path alike).
        for len in [100usize, SEQ_THRESHOLD + 1000, 40_000] {
            let mut rng = Rng64::new(len as u64);
            let mut data: Vec<(i64, u32)> =
                (0..len).map(|i| (rng.range_i64(0..16), i as u32)).collect();
            let mut expect = data.clone();
            expect.sort_by_key(|p| p.0);
            radix_sort_by_u64_key(&mut data, 4, |p| i64_key(p.0));
            assert_eq!(data, expect, "stability violated at len={len}");
        }
    }

    #[test]
    fn threshold_boundary_lengths() {
        let mut rng = Rng64::new(31);
        for len in [SEQ_THRESHOLD - 1, SEQ_THRESHOLD, SEQ_THRESHOLD + 1] {
            for threads in [1usize, 2, 4] {
                let mut data: Vec<i64> = (0..len).map(|_| rng.i64()).collect();
                check_i64(&mut data, threads, &format!("len={len} threads={threads}"));
            }
        }
    }

    #[test]
    fn bias_transform_is_monotone() {
        let samples = [
            i64::MIN,
            i64::MIN + 1,
            -2,
            -1,
            0,
            1,
            2,
            i64::MAX - 1,
            i64::MAX,
        ];
        for w in samples.windows(2) {
            assert!(i64_key(w[0]) < i64_key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn float_transform_matches_total_order() {
        let neg_nan = f64::from_bits(f64::NAN.to_bits() | (1u64 << 63));
        let samples = [
            neg_nan,
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE, // largest negative normal magnitude step
            -f64::from_bits(1), // negative subnormal closest to zero
            -0.0,
            0.0,
            f64::from_bits(1), // smallest positive subnormal
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for w in samples.windows(2) {
            assert!(f64_key(w[0]) < f64_key(w[1]), "{} vs {}", w[0], w[1]);
            assert_eq!(w[0].total_cmp(&w[1]), std::cmp::Ordering::Less);
        }
        // Key order must agree with total_cmp on every pair, equal or not.
        for &a in &samples {
            for &b in &samples {
                assert_eq!(f64_key(a).cmp(&f64_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }
}
