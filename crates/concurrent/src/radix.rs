//! Radix partition sort for integer keys.
//!
//! The sort-first conversion pipeline (paper §2.4) and numeric `order_by`
//! spend their time sorting `(i64, i64)` edge pairs and rows of numeric
//! sort columns — plain machine integers, for which a comparison sort's
//! `O(n log n)` branchy comparisons are the wrong tool. Both sorts reduce
//! an item to **one integer word whose order is the order wanted**, made
//! only of the bits that vary across the input, and hand a "words of this
//! row range" view to one partition core (`count_keys`,
//! `partition_sort`): per-worker histograms of the words' top
//! `BUCKET_BITS` (no sharing, no atomics), a prefix scan into
//! per-worker cursors, one scatter of every word — built where the
//! columns lie — into its order-aligned bucket (disjoint, lock-free
//! writes), and a sort of each cache-sized bucket where it lies. The
//! whole sort touches DRAM a constant number of times instead of once per
//! digit, and no tuple array or permutation exists before or after.
//!
//! The word is `u64` when the varying bits fit and `u128` otherwise — one
//! private `Word` trait with those two implementations, so the `u64`
//! sort is the loops it always was. The pair sort ([`radix_sort_columns`])
//! packs `(a, b)` off two `i64` columns — or, for an undirected edge,
//! `(min, max)`, once a row — and two spans of at most 64 bits always
//! fit 128. The row sort ([`radix_sort_rows`]) packs `(sort
//! columns…, row position)`: the position makes every word distinct, so
//! the unstable bucket sorts yield the stable order, and the caller reads
//! positions back off the sorted words — off `u64` words, with every sort
//! column decoded whole in the same pass ([`decode_rows`]). Rows wider
//! than 128 bits — two or more full-range columns beside the position —
//! sort in chained passes of the same core, least significant column
//! group first, each pass ordering the previous pass's output.
//!
//! Signed keys map to unsigned order through [`i64_key`], doubles through
//! [`f64_key`]. Inputs shorter than [`SEQ_THRESHOLD`] pack the same words
//! and finish with one standard-library sort.

use crate::parallel::{parallel_for, parallel_for_dynamic, parallel_map, DisjointSlice};
use std::ops::Range;
use word::Word;

/// Inputs shorter than this pack their words and finish with one standard
/// library sort instead of the partition passes.
pub const SEQ_THRESHOLD: usize = 4096;

/// Top bits of a word that pick its partition bucket. 11 bits = 2048
/// buckets: few enough that the cursor table (16KB) and the
/// currently-filling cache line of every bucket stay resident even in a
/// small L2.
const BUCKET_BITS: usize = 11;

mod word {
    /// The integer one pair or row is packed into: `u64`, or `u128` when
    /// the varying bits need it. Public only so that the codecs' public
    /// methods can take either word; the module is private, so these two
    /// implementations are all there are.
    pub trait Word: Copy + Default + Ord + Send + Sync + std::ops::BitOrAssign {
        /// `x` in the low 64 bits.
        fn widen(x: u64) -> Self;
        /// The low 64 bits.
        fn low(self) -> u64;
        /// `wrapping_shl`.
        fn shl(self, by: u32) -> Self;
        /// `wrapping_shr`.
        fn shr(self, by: u32) -> Self;
    }

    macro_rules! word {
        ($($t:ty),*) => {$(
            impl Word for $t {
                #[inline(always)]
                fn widen(x: u64) -> Self { x as $t }
                #[inline(always)]
                fn low(self) -> u64 { self as u64 }
                #[inline(always)]
                fn shl(self, by: u32) -> Self { self.wrapping_shl(by) }
                #[inline(always)]
                fn shr(self, by: u32) -> Self { self.wrapping_shr(by) }
            }
        )*};
    }
    word!(u64, u128);
}

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

/// Edge pairs sorted by [`radix_sort_columns`]: the sorted keys, in the
/// word they were sorted in, and the codec that recovers a key's two ids.
pub enum SortedPairs {
    /// The two varying spans fit 64 bits together.
    U64(Vec<u64>, PairCodec),
    /// The spans need up to 128 bits (ids of both signs, full-range ids).
    U128(Vec<u128>, PairCodec),
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
            // `bits_b == 64` in a `u64` forces `a_mask == 0`, so the
            // wrapped shift amount only ever moves zeros.
            shift: bits_b as u32,
            a_mask,
            b_mask,
            a_fix: (a_and & !a_mask) ^ (1u64 << 63),
            b_fix: (b_and & !b_mask) ^ (1u64 << 63),
        }
    }

    #[inline(always)]
    fn pack<W: Word>(&self, a: i64, b: i64) -> W {
        let mut key = W::widen(i64_key(a) & self.a_mask).shl(self.shift);
        key |= W::widen(i64_key(b) & self.b_mask);
        key
    }

    /// The leading id of a packed pair.
    #[inline(always)]
    pub fn first<W: Word>(&self, key: W) -> i64 {
        ((key.shr(self.shift).low() & self.a_mask) ^ self.a_fix) as i64
    }

    /// The trailing id of a packed pair.
    #[inline(always)]
    pub fn second<W: Word>(&self, key: W) -> i64 {
        ((key.low() & self.b_mask) ^ self.b_fix) as i64
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
/// straight off a table's two edge columns. Each column may be read
/// through a selection of its own (`sels`): row `i` of `a` is then
/// `a[sels[0][i]]`, so a view's columns are sorted where they lie. With
/// `canonical`, row `i` is packed once as `(min, max)` of its two ids: an
/// undirected edge's one key, whichever way round the row named it.
///
/// A mask probe finds each component's varying-bit span (bits above it
/// are constant across the input — node ids in practice occupy a narrow
/// range, so most of each `i64` never varies). Each pair packs into one
/// order-preserving key ([`PairCodec`]): a `u64` when the two spans fit
/// it together, else a `u128`. A single partition pass reads the columns
/// and scatters the keys into order-aligned buckets, each finished in
/// place; the keys are returned as they are and the caller unpacks what
/// it needs while it walks them. On a long input the spans are guessed
/// from a sample and verified during the counting pass (full masks come
/// along for free); a bad guess — some high bit varies so rarely the
/// sample missed it — just recounts with the true spans, in the word they
/// need.
///
/// # Panics
/// Panics if the columns differ in length.
pub fn radix_sort_columns(
    a: &[i64],
    b: &[i64],
    sels: [Option<&[u32]>; 2],
    canonical: bool,
    threads: usize,
) -> SortedPairs {
    // The columns; each attempt packs them with the codec of its spans.
    let pairs = PairKeys {
        a,
        b,
        sels,
        canonical,
        codec: PairCodec::new(0, 0, 0, 0),
    };
    let len = pairs.len();
    let b_len = sels[1].map_or(b.len(), <[u32]>::len);
    assert_eq!(len, b_len, "edge columns must have equal length");
    let mut sp = ringo_trace::span!("sort.radix.pairs");
    sp.rows_in(len);

    // Short inputs (and ones whose bucket counts would overflow the u32
    // histograms) pack with exact masks and finish with one std sort.
    let short = len < SEQ_THRESHOLD || len >= u32::MAX as usize;
    // One cheap sequential scan makes already-sorted input (a graph's own
    // edge table coming back) a parallel pack instead of a partition
    // cycle.
    let sorted = !short && (0..len).map(|i| pairs.pair(i)).is_sorted();
    // The varying spans: exact over a short input, guessed from a strided
    // sample of a long one.
    let mut seen = Masks::EMPTY;
    let step = if short { 1 } else { (len / 512).max(1) };
    for i in (0..len).step_by(step) {
        let (s, d) = pairs.pair(i);
        seen.add(s, d);
    }
    let out = loop {
        let (bits_a, bits_b) = seen.spans();
        let done = if bits_a + bits_b <= 64 {
            sort_pairs(&pairs, seen, short, sorted, threads).map(|(k, c)| SortedPairs::U64(k, c))
        } else {
            sort_pairs(&pairs, seen, short, sorted, threads).map(|(k, c)| SortedPairs::U128(k, c))
        };
        match done {
            Ok(out) => break out,
            Err(full) => seen = full,
        }
    };
    sp.rows_out(match &out {
        SortedPairs::U64(keys, _) => keys.len(),
        SortedPairs::U128(keys, _) => keys.len(),
    });
    out
}

/// [`radix_sort_columns`] in the word `W`, with the spans of `seen`:
/// exact when `short`, otherwise a guess the counting pass verifies —
/// `Err` with the full masks when a span turns out wider.
fn sort_pairs<W: Word>(
    pairs: &PairKeys<'_>,
    seen: Masks,
    short: bool,
    sorted: bool,
    threads: usize,
) -> Result<(Vec<W>, PairCodec), Masks> {
    let len = pairs.len();
    let (bits_a, bits_b) = seen.spans();
    if short {
        let codec = PairCodec::new(bits_a, bits_b, seen.a_and, seen.b_and);
        let src = PairKeys { codec, ..*pairs };
        let mut keys: Vec<W> = (0..len).map(|i| src.key(i)).collect();
        keys.sort_unstable();
        return Ok((keys, codec));
    }

    // Counting pass: bucket histograms plus the full masks that verify
    // the sampled spans. Packing reads only the spans; the constant bits
    // wait for the verified masks.
    let probe = PairKeys {
        codec: PairCodec::new(bits_a, bits_b, 0, 0),
        ..*pairs
    };
    let hist = count_keys::<W, _>(&probe, len, threads, bits_a + bits_b);
    let mut full = Masks::EMPTY;
    for (_, m) in &hist {
        full.merge(m);
    }
    let (full_a, full_b) = full.spans();
    if full_a > bits_a || full_b > bits_b {
        return Err(full);
    }
    let codec = PairCodec::new(bits_a, bits_b, full.a_and, full.b_and);
    let src = PairKeys { codec, ..probe };
    let keys = if sorted {
        let mut keys = vec![W::default(); len];
        let cell = DisjointSlice::new(&mut keys);
        parallel_for(len, threads, |_, range| {
            // SAFETY: chunk ranges are disjoint.
            let out = unsafe { cell.slice_mut(range.start, range.end) };
            for (k, i) in out.iter_mut().zip(range) {
                *k = src.key(i);
            }
        });
        keys
    } else {
        partition_sort(&src, len, threads, bits_a + bits_b, &hist)
    };
    Ok((keys, codec))
}

/// The two edge columns as the partition core reads them: one packed key
/// per row ([`PairKeys::pair`]), and the span masks of what was read.
#[derive(Clone, Copy)]
struct PairKeys<'a> {
    a: &'a [i64],
    b: &'a [i64],
    /// Each column's selection: its row `i` is `col[sel[i]]`.
    sels: [Option<&'a [u32]>; 2],
    canonical: bool,
    codec: PairCodec,
}

impl PairKeys<'_> {
    /// Number of rows.
    fn len(&self) -> usize {
        self.sels[0].map_or(self.a.len(), <[u32]>::len)
    }

    /// The pair row `i` sorts as: `(a[i], b[i])` through the columns'
    /// selections, or when `canonical` the smaller id first.
    #[inline(always)]
    fn pair(&self, i: usize) -> (i64, i64) {
        let at = |sel: Option<&[u32]>| sel.map_or(i, |s| s[i] as usize);
        let (s, d) = (self.a[at(self.sels[0])], self.b[at(self.sels[1])]);
        match self.canonical {
            true => (s.min(d), s.max(d)),
            false => (s, d),
        }
    }

    /// Row `i`'s packed key.
    #[inline(always)]
    fn key<W: Word>(&self, i: usize) -> W {
        let (s, d) = self.pair(i);
        self.codec.pack(s, d)
    }
}

impl<W: Word> Keys<W> for PairKeys<'_> {
    type Seen = Masks;

    #[inline(always)]
    fn each(&self, rows: Range<usize>, mut f: impl FnMut(W)) -> Masks {
        let mut m = Masks::EMPTY;
        for i in rows {
            let (s, d) = self.pair(i);
            m.add(s, d);
            f(self.codec.pack(s, d));
        }
        m
    }
}

/// Rows that show themselves to the partition core as packed words whose
/// integer order is the order wanted. The core never holds the rows: it
/// asks for "the words of this row range" once to count and once to
/// scatter, and the source reads its columns where they lie.
trait Keys<W>: Sync {
    /// What a walk learns beside the words (the pair sorter's span masks).
    type Seen: Send;

    /// Calls `f` with every word of `rows`, in row order.
    fn each(&self, rows: Range<usize>, f: impl FnMut(W)) -> Self::Seen;
}

/// Bits of a `total_bits`-wide word that pick its bucket, and the shift
/// that brings them down.
fn bucket_split(total_bits: usize) -> (usize, u32) {
    let bucket_bits = BUCKET_BITS.min(total_bits);
    (bucket_bits, (total_bits - bucket_bits) as u32)
}

/// Counting pass of the partition core: per-worker histograms of the
/// words' top bits, and whatever each worker's walk saw.
// LINT: hot — exact-size buffers only (`vec![…]`/`with_capacity` stay legal).
fn count_keys<W: Word, K: Keys<W>>(
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
        let seen = src.each(range, |key| h[key.shr(down).low() as usize] += 1);
        (h, seen)
    })
}

/// The partition core proper, after [`count_keys`] over the same rows:
/// prefix scan, one **MSD partition pass** that scatters every word into
/// up to 2048 order-aligned buckets by its top bits, and a finish that
/// sorts each bucket where it lies.
// LINT: hot — exact-size buffers only (`vec![…]`/`with_capacity` stay legal).
fn partition_sort<W: Word, K: Keys<W>>(
    src: &K,
    len: usize,
    threads: usize,
    total_bits: usize,
    hist: &[(Vec<u32>, K::Seen)],
) -> Vec<W> {
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

    // Partition pass: every word, packed straight off the columns, goes
    // to its bucket range.
    let mut keys: Vec<W> = vec![W::default(); n_keys];
    let keys_cell = DisjointSlice::new(&mut keys);
    {
        let cursor_cell = DisjointSlice::new(&mut cursors);
        parallel_for(len, threads, |w, range| {
            // SAFETY: each worker touches only its own cursor row.
            let cur = unsafe { cursor_cell.slice_mut(w * buckets, (w + 1) * buckets) };
            src.each(range, |key| {
                let b = key.shr(down).low() as usize;
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
    /// An `Int` column read through its own selection: its row `j` is
    /// `v[sel[j]]`.
    IntAt(&'a [i64], &'a [u32]),
    /// A `Float` column read through its own selection.
    FloatAt(&'a [f64], &'a [u32]),
}

impl SortColumn<'_> {
    fn len(&self) -> usize {
        match self {
            Self::Int(v) => v.len(),
            Self::Float(v) => v.len(),
            Self::IntAt(_, s) | Self::FloatAt(_, s) => s.len(),
        }
    }

    fn is_float(&self) -> bool {
        matches!(self, Self::Float(_) | Self::FloatAt(..))
    }

    /// Calls `f(j, key)` for every position `j` of `rows` with the
    /// order-preserving key of the row there (`sel[j]`, or `j` itself).
    #[inline(always)]
    fn each_word(&self, rows: Range<usize>, sel: Option<&[u32]>, f: impl FnMut(usize, u64)) {
        match *self {
            Self::Int(v) => words(rows, sel, None, |i| i64_key(v[i]), f),
            Self::Float(v) => words(rows, sel, None, |i| f64_key(v[i]), f),
            Self::IntAt(v, own) => words(rows, sel, Some(own), |i| i64_key(v[i]), f),
            Self::FloatAt(v, own) => words(rows, sel, Some(own), |i| f64_key(v[i]), f),
        }
    }
}

/// Calls `f(j, key(i))` for every position `j` of `rows`, `i` the row
/// there: `j` read through `sel`, then through the column's own
/// selection `own`. One typed loop per kind of selection.
#[inline(always)]
fn words(
    rows: Range<usize>,
    sel: Option<&[u32]>,
    own: Option<&[u32]>,
    key: impl Fn(usize) -> u64,
    mut f: impl FnMut(usize, u64),
) {
    match (sel, own) {
        (None, None) => rows.for_each(|j| f(j, key(j))),
        (Some(s), None) => rows.for_each(|j| f(j, key(s[j] as usize))),
        (None, Some(o)) => rows.for_each(|j| f(j, key(o[j] as usize))),
        (Some(s), Some(o)) => rows.for_each(|j| f(j, key(o[s[j] as usize] as usize))),
    }
}

/// Where one sort column sits in a row word: `mask` over its varying
/// bits, moved up by `shift`; `high` holds the bits above them, which
/// every row's (complemented) key shares.
#[derive(Clone, Copy, Debug)]
struct Field {
    shift: u32,
    mask: u64,
    high: u64,
}

impl Field {
    /// The column's order-preserving key ([`i64_key`] / [`f64_key`]) off
    /// word `w` of a layout that complements keys by `flip`: its varying
    /// bits, the bits every row shares above them, then `flip` undone.
    #[inline(always)]
    fn key<W: Word>(&self, w: W, flip: u64) -> u64 {
        ((w.shr(self.shift).low() & self.mask) | self.high) ^ flip
    }
}

/// The inverse of [`i64_key`].
#[inline(always)]
fn i64_of_key(key: u64) -> i64 {
    (key ^ (1u64 << 63)) as i64
}

/// The inverse of [`f64_key`], bit for bit: NaN payloads and zero signs
/// come back as they went in.
#[inline(always)]
fn f64_of_key(key: u64) -> f64 {
    // `f64_key` flips the magnitude bits of negatives and keeps the sign,
    // so the sign read back says whether to flip them again.
    let b = i64_of_key(key);
    f64::from_bits((b ^ ((((b >> 63) as u64) >> 1) as i64)) as u64)
}

/// Unpacks the words [`radix_sort_rows`] sorted: `(columns…, position)`,
/// first column highest, each column reduced to the bits that vary.
#[derive(Clone, Debug)]
pub struct RowCodec {
    fields: Vec<Field>,
    pos_mask: u64,
    /// Width of a word: the fields and the position.
    bits: usize,
    /// All ones when descending: complements every column's key.
    flip: u64,
}

impl RowCodec {
    /// The layout for columns whose keys, complemented by `flip`, have
    /// these ORs and ANDs (`spans`), above a `pos_bits`-wide position.
    fn new(spans: &[(u64, u64)], flip: u64, pos_bits: usize) -> Self {
        let mut bits = pos_bits;
        let mut fields: Vec<Field> = spans
            .iter()
            .rev()
            .map(|&(or, and)| {
                let width = span_bits(or, and);
                let mask = low_mask(width);
                let field = Field {
                    // A shift of the word's width wraps to 0, and only
                    // ever moves a zero mask.
                    shift: bits as u32,
                    mask,
                    high: (and ^ flip) & !mask,
                };
                bits += width;
                field
            })
            .collect();
        fields.reverse();
        Self {
            fields,
            pos_mask: low_mask(pos_bits),
            bits,
            flip,
        }
    }

    /// Where the row stood before the sort: its index into `sel`, or its
    /// row number.
    #[inline(always)]
    pub fn position<W: Word>(&self, key: W) -> usize {
        (key.low() & self.pos_mask) as usize
    }

    /// Sort column `c` of the row `key` holds, an `Int` column: its
    /// value, exactly.
    pub fn int<W: Word>(&self, c: usize, key: W) -> i64 {
        i64_of_key(self.fields[c].key(key, self.flip))
    }

    /// Sort column `c` of the row `key` holds, a `Float` column: its
    /// value, bit for bit.
    pub fn float<W: Word>(&self, c: usize, key: W) -> f64 {
        f64_of_key(self.fields[c].key(key, self.flip))
    }
}

/// Rows sorted by [`radix_sort_rows`]: one sorted key per row, in the
/// word it was sorted in, and the codec that unpacks it — or, for rows
/// too wide for one word, the rows themselves in order.
pub enum SortedRows {
    /// Sort columns and position fit 64 bits.
    U64(Vec<u64>, RowCodec),
    /// They fit 128 bits.
    U128(Vec<u128>, RowCodec),
    /// Wider: the rows (entries of `sel`, or row numbers) from chained
    /// passes.
    Chained(Vec<u32>),
}

/// The sort columns as the partition core reads them: one word per row.
struct RowKeys<'a> {
    cols: &'a [SortColumn<'a>],
    sel: Option<&'a [u32]>,
    codec: &'a RowCodec,
}

impl<W: Word> Keys<W> for RowKeys<'_> {
    type Seen = ();

    /// Words are built a block at a time, column by column, so every
    /// inner loop is typed and the block stays in L1.
    #[inline(always)]
    fn each(&self, rows: Range<usize>, mut f: impl FnMut(W)) {
        const BLOCK: usize = 1024;
        let mut block = [W::default(); BLOCK];
        for start in rows.clone().step_by(BLOCK) {
            let out = &mut block[..BLOCK.min(rows.end - start)];
            for (j, o) in out.iter_mut().enumerate() {
                *o = W::widen((start + j) as u64);
            }
            let flip = self.codec.flip;
            for (col, field) in self.cols.iter().zip(&self.codec.fields) {
                col.each_word(start..start + out.len(), self.sel, |j, w| {
                    out[j - start] |= W::widen((w ^ flip) & field.mask).shl(field.shift);
                });
            }
            out.iter().for_each(|&key| f(key));
        }
    }
}

/// Sorts the rows of `sel` (every row when `None`) by `cols` — first
/// column first, ties by the next, then by position in `sel` — as **one**
/// sort of one word per row: each column's order-preserving key
/// ([`i64_key`] / [`f64_key`], complemented when descending) reduced to
/// the bits that vary across the rows, above the row's position in
/// `ceil(log2 n)` bits. The position makes every word distinct, so the
/// partition core's unstable bucket sorts cannot reorder anything: the
/// result is the stable order. The sorted words come back as they are,
/// and [`RowCodec::position`] says where each row stood.
///
/// The word is a `u64` when the varying bits and the position fit it, a
/// `u128` when they fit that; wider rows (two or more full-range columns)
/// sort in chained passes and come back as rows in order.
pub fn radix_sort_rows(
    cols: &[SortColumn<'_>],
    ascending: bool,
    sel: Option<&[u32]>,
    threads: usize,
) -> SortedRows {
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
    let codec = RowCodec::new(&spans, flip, pos_bits);
    match codec.bits {
        0..=64 => SortedRows::U64(sort_rows(cols, sel, len, &codec, threads), codec),
        65..=128 => SortedRows::U128(sort_rows(cols, sel, len, &codec, threads), codec),
        _ => SortedRows::Chained(sort_chained(
            cols, &spans, flip, pos_bits, sel, len, threads,
        )),
    }
}

/// The `len` rows of `sel` as words of `codec`'s layout, sorted.
fn sort_rows<W: Word>(
    cols: &[SortColumn<'_>],
    sel: Option<&[u32]>,
    len: usize,
    codec: &RowCodec,
    threads: usize,
) -> Vec<W> {
    let src = RowKeys { cols, sel, codec };
    // Short inputs (and ones whose bucket counts would overflow the u32
    // histograms) take one std sort.
    if len < SEQ_THRESHOLD || len >= u32::MAX as usize {
        let mut keys = Vec::with_capacity(len);
        src.each(0..len, |key| keys.push(key));
        keys.sort_unstable();
        return keys;
    }
    let hist = count_keys::<W, _>(&src, len, threads, codec.bits);
    partition_sort(&src, len, threads, codec.bits, &hist)
}

/// [`radix_sort_rows`] for columns that need more than 128 bits beside
/// the position: one pass of the partition core per group of adjacent
/// columns that fits, least significant group first. Each pass sorts the
/// rows in the previous pass's order — that order is its `sel` — so the
/// position breaks ties and every pass keeps the order of the passes
/// before it, as an LSD sort's digits do.
fn sort_chained(
    cols: &[SortColumn<'_>],
    spans: &[(u64, u64)],
    flip: u64,
    pos_bits: usize,
    sel: Option<&[u32]>,
    len: usize,
    threads: usize,
) -> Vec<u32> {
    let mut order: Option<Vec<u32>> = None;
    let mut end = cols.len();
    while end > 0 {
        // The most columns ending at `end` that fit 128 bits beside the
        // position; one full-range column always does.
        let mut start = end - 1;
        while start > 0 && RowCodec::new(&spans[start - 1..end], flip, pos_bits).bits <= 128 {
            start -= 1;
        }
        let (group, pass_sel) = (&cols[start..end], order.as_deref().or(sel));
        let codec = RowCodec::new(&spans[start..end], flip, pos_bits);
        let row = |at: usize| pass_sel.map_or(at as u32, |s| s[at]);
        order = Some(if codec.bits <= 64 {
            let keys: Vec<u64> = sort_rows(group, pass_sel, len, &codec, threads);
            keys.iter().map(|&k| row(codec.position(k))).collect()
        } else {
            let keys: Vec<u128> = sort_rows(group, pass_sel, len, &codec, threads);
            keys.iter().map(|&k| row(codec.position(k))).collect()
        });
        end = start;
    }
    order.unwrap_or_default()
}

/// A sort column decoded off the words [`radix_sort_rows`] sorted: its
/// values, in sorted order.
#[derive(Debug, PartialEq)]
pub enum SortedColumn {
    /// An `Int` column's values.
    Int(Vec<i64>),
    /// A `Float` column's values, bit for bit.
    Float(Vec<f64>),
}

/// Where the decode writes one sort column after the first.
enum Decoding {
    Int(Field, DisjointSlice<i64>),
    Float(Field, DisjointSlice<f64>),
}

/// The row positions read off `u64` words that [`radix_sort_rows`] sorted
/// by `cols` under `codec` (all positions below `u32::MAX`), and every
/// column of `cols` decoded off the same words, in one parallel pass.
/// With `cols` empty the words give positions only. The first column
/// takes over the words' own buffer: each word is rewritten in place as
/// its value, once every other column has read it, so the decode
/// allocates the positions and the columns after the first, no more.
pub fn decode_rows(
    mut words: Vec<u64>,
    codec: &RowCodec,
    cols: &[SortColumn<'_>],
    threads: usize,
) -> (Vec<u32>, Vec<SortedColumn>) {
    const BLOCK: usize = 4096;
    let n = words.len();
    let flip = codec.flip;
    let mut positions = vec![0u32; n];
    let mut rest: Vec<SortedColumn> = cols
        .iter()
        .skip(1)
        .map(|c| {
            if c.is_float() {
                SortedColumn::Float(vec![0.0; n])
            } else {
                SortedColumn::Int(vec![0; n])
            }
        })
        .collect();
    {
        let outs: Vec<Decoding> = rest
            .iter_mut()
            .zip(codec.fields.iter().skip(1))
            .map(|(col, &field)| match col {
                SortedColumn::Int(v) => Decoding::Int(field, DisjointSlice::new(v)),
                SortedColumn::Float(v) => Decoding::Float(field, DisjointSlice::new(v)),
            })
            .collect();
        let first = cols.first().map(|c| (codec.fields[0], c.is_float()));
        let (pos_cell, words_cell) = (
            DisjointSlice::new(&mut positions),
            DisjointSlice::new(&mut words),
        );
        parallel_for(n, threads, |_, range| {
            for lo in range.clone().step_by(BLOCK) {
                let hi = range.end.min(lo + BLOCK);
                // SAFETY: chunks are disjoint ranges of `0..n`, and so are
                // the blocks of one chunk; every window below is `lo..hi`.
                let block = unsafe { words_cell.slice_mut(lo, hi) };
                // SAFETY: as above.
                let pos = unsafe { pos_cell.slice_mut(lo, hi) };
                for (p, &w) in pos.iter_mut().zip(block.iter()) {
                    *p = codec.position(w) as u32;
                }
                for out in &outs {
                    match out {
                        Decoding::Int(f, cell) => {
                            // SAFETY: as above.
                            let out = unsafe { cell.slice_mut(lo, hi) };
                            for (o, &w) in out.iter_mut().zip(block.iter()) {
                                *o = i64_of_key(f.key(w, flip));
                            }
                        }
                        Decoding::Float(f, cell) => {
                            // SAFETY: as above.
                            let out = unsafe { cell.slice_mut(lo, hi) };
                            for (o, &w) in out.iter_mut().zip(block.iter()) {
                                *o = f64_of_key(f.key(w, flip));
                            }
                        }
                    }
                }
                match first {
                    Some((f, false)) => {
                        for w in block.iter_mut() {
                            *w = i64_of_key(f.key(*w, flip)) as u64;
                        }
                    }
                    Some((f, true)) => {
                        for w in block.iter_mut() {
                            *w = f64_of_key(f.key(*w, flip)).to_bits();
                        }
                    }
                    None => {}
                }
            }
        });
    }
    // Each word already holds its value's bits: the standard library
    // collects a same-size map of a vector's own items into its buffer,
    // and the identity map compiles to nothing (the tests pin the buffer).
    let first = cols.first().map(|c| {
        if c.is_float() {
            SortedColumn::Float(words.into_iter().map(f64::from_bits).collect())
        } else {
            SortedColumn::Int(words.into_iter().map(|w| w as i64).collect())
        }
    });
    (positions, first.into_iter().chain(rest).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_rng::Rng64;

    /// The rows of `cols` in sorted order, whichever word sorted them, and
    /// that word.
    fn sorted_rows(
        cols: &[SortColumn<'_>],
        ascending: bool,
        sel: Option<&[u32]>,
        threads: usize,
    ) -> (Vec<usize>, &'static str) {
        let row = |at: usize| sel.map_or(at, |s| s[at] as usize);
        match radix_sort_rows(cols, ascending, sel, threads) {
            SortedRows::U64(keys, codec) => (
                keys.iter().map(|&k| row(codec.position(k))).collect(),
                "u64",
            ),
            SortedRows::U128(keys, codec) => (
                keys.iter().map(|&k| row(codec.position(k))).collect(),
                "u128",
            ),
            SortedRows::Chained(rows) => (rows.iter().map(|&r| r as usize).collect(), "chained"),
        }
    }

    /// One `Int` column sorted ascending: every row where a stable sort
    /// puts it, its position read back off its key.
    fn check_i64(data: &[i64], threads: usize, ctx: &str) {
        let mut expect: Vec<usize> = (0..data.len()).collect();
        expect.sort_by_key(|&i| data[i]);
        let cols = [SortColumn::Int(data)];
        let (got, word) = sorted_rows(&cols, true, None, threads);
        assert_ne!(word, "chained", "{ctx}: one column never chains");
        assert_eq!(got, expect, "{ctx}");
    }

    #[test]
    fn small_inputs_fall_back() {
        for len in [0usize, 1, 2, 100, SEQ_THRESHOLD - 1] {
            let mut rng = Rng64::new(len as u64);
            let data: Vec<i64> = (0..len).map(|_| rng.i64()).collect();
            check_i64(&data, 4, &format!("len={len}"));
        }
    }

    #[test]
    fn sorts_u64_full_range() {
        // Every bit of a 64-bit key varies: a `u128` word.
        let mut rng = Rng64::new(7);
        let data: Vec<i64> = (0..50_000).map(|_| rng.u64() as i64).collect();
        check_i64(&data, 4, "full range");
    }

    #[test]
    fn sorts_i64_negative_and_extremes() {
        let mut rng = Rng64::new(11);
        let mut data: Vec<i64> = (0..30_000).map(|_| rng.range_i64(-500..500)).collect();
        data.extend([i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX]);
        check_i64(&data, 4, "negatives + extremes");
    }

    #[test]
    fn all_equal_and_duplicates_heavy() {
        check_i64(&vec![42i64; 20_000], 4, "all equal");
        let dups: Vec<i64> = (0..20_000).map(|i| (i % 3) - 1).collect();
        check_i64(&dups, 3, "duplicates");
    }

    #[test]
    fn presorted_and_reversed() {
        let asc: Vec<i64> = (0..30_000).collect();
        check_i64(&asc, 4, "presorted");
        let desc: Vec<i64> = (0..30_000).rev().collect();
        check_i64(&desc, 4, "reversed");
    }

    #[test]
    fn columns_match_std_full_ord() {
        let mut rng = Rng64::new(23);
        // Mixed signs vary in all 64 bits of each biased key (a `u128`
        // word); one sign packs into a `u64`. Canonical rows sort as
        // `(min, max)`.
        for (range, narrow) in [(-100..100, false), (0..200, true)] {
            for (threads, canonical) in [(1usize, false), (2, true), (4, false), (4, true)] {
                let a: Vec<i64> = (0..40_000).map(|_| rng.range_i64(range.clone())).collect();
                let b: Vec<i64> = (0..40_000).map(|_| rng.range_i64(range.clone())).collect();
                let row = |(s, d): (i64, i64)| {
                    if canonical {
                        (s.min(d), s.max(d))
                    } else {
                        (s, d)
                    }
                };
                let mut expect: Vec<(i64, i64)> =
                    a.iter().copied().zip(b.iter().copied()).map(row).collect();
                expect.sort_unstable();
                let got: Vec<(i64, i64)> =
                    match radix_sort_columns(&a, &b, [None, None], canonical, threads) {
                        SortedPairs::U64(keys, codec) => {
                            assert!(narrow, "mixed signs cannot fit a u64");
                            keys.iter()
                                .map(|&k| (codec.first(k), codec.second(k)))
                                .collect()
                        }
                        SortedPairs::U128(keys, codec) => {
                            assert!(!narrow, "narrow ids must fit a u64");
                            keys.iter()
                                .map(|&k| (codec.first(k), codec.second(k)))
                                .collect()
                        }
                    };
                assert_eq!(
                    got, expect,
                    "threads={threads} narrow={narrow} canonical={canonical}"
                );
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
            // `a` spread over 63 bits: the same sort in a `u128` word.
            let wide: Vec<i64> = a.iter().map(|&x| x * (1 << 58)).collect();
            // Every third row, last first: ties must keep *this* order.
            let sel: Vec<u32> = (0..len as u32).rev().step_by(3).collect();
            for (first, word) in [(&a, "u64"), (&wide, "u128")] {
                let cols = [SortColumn::Int(first), SortColumn::Float(&b)];
                for (sel, ascending, threads) in [
                    (None, true, 1),
                    (None, false, 4),
                    (Some(&sel[..]), true, 2),
                    (Some(&sel[..]), false, 3),
                ] {
                    let ctx = format!("len={len} {word} sel={} asc={ascending}", sel.is_some());
                    let n = sel.map_or(len, <[u32]>::len);
                    let row = |at: usize| sel.map_or(at, |s| s[at] as usize);
                    let mut expect: Vec<usize> = (0..n).collect();
                    expect.sort_by(|&x, &y| {
                        let (x, y) = if ascending { (x, y) } else { (y, x) };
                        let (x, y) = (row(x), row(y));
                        first[x].cmp(&first[y]).then(b[x].total_cmp(&b[y]))
                    });
                    let decoded: Vec<usize> = match radix_sort_rows(&cols, ascending, sel, threads)
                    {
                        SortedRows::U64(keys, codec) if word == "u64" || n < 2 => {
                            keys.iter().map(|&k| codec.position(k)).collect()
                        }
                        SortedRows::U128(keys, codec) if word == "u128" => {
                            keys.iter().map(|&k| codec.position(k)).collect()
                        }
                        _ => panic!("{ctx}: wrong word"),
                    };
                    assert_eq!(decoded, expect, "{ctx}");
                }
            }
        }
    }

    /// Asserts every word of `keys` decodes, column by column, to the
    /// value of the row it holds, bit for bit.
    fn each_word_decodes<W: Word>(
        keys: &[W],
        codec: &RowCodec,
        cols: &[SortColumn<'_>],
        ctx: &str,
    ) {
        for &k in keys {
            let row = codec.position(k);
            for (c, col) in cols.iter().enumerate() {
                let (got, want) = match *col {
                    SortColumn::Int(v) => (codec.int(c, k) as u64, v[row] as u64),
                    SortColumn::Float(v) => (codec.float(c, k).to_bits(), v[row].to_bits()),
                    _ => unreachable!("whole columns only"),
                };
                assert_eq!(got, want, "{ctx}: column {c} of row {row}");
            }
        }
    }

    /// Sorts `cols` and checks the decode of every sorted word, and on
    /// `u64` words [`decode_rows`] too, with and without columns. Returns
    /// the word the rows were sorted in.
    fn check_decode(
        cols: &[SortColumn<'_>],
        ascending: bool,
        threads: usize,
        ctx: &str,
    ) -> &'static str {
        let (keys, codec) = match radix_sort_rows(cols, ascending, None, threads) {
            SortedRows::U64(keys, codec) => (keys, codec),
            SortedRows::U128(keys, codec) => {
                each_word_decodes(&keys, &codec, cols, ctx);
                return "u128";
            }
            SortedRows::Chained(_) => return "chained",
        };
        each_word_decodes(&keys, &codec, cols, ctx);
        let positions: Vec<u32> = keys.iter().map(|&k| codec.position(k) as u32).collect();
        let words = keys.clone();
        let buffer = words.as_ptr().cast::<u8>();
        let (perm, decoded) = decode_rows(words, &codec, cols, threads);
        assert_eq!(perm, positions, "{ctx}: positions");
        assert_eq!(decoded.len(), cols.len(), "{ctx}: one vector a column");
        for (c, (col, got)) in cols.iter().zip(&decoded).enumerate() {
            let bits: Vec<u64> = match (col, got) {
                (SortColumn::Int(_), SortedColumn::Int(v)) => v.iter().map(|&x| x as u64).collect(),
                (SortColumn::Float(_), SortedColumn::Float(v)) => {
                    v.iter().map(|x| x.to_bits()).collect()
                }
                _ => panic!("{ctx}: column {c} decoded as the wrong type"),
            };
            let want: Vec<u64> = positions
                .iter()
                .map(|&row| match *col {
                    SortColumn::Int(v) => v[row as usize] as u64,
                    SortColumn::Float(v) => v[row as usize].to_bits(),
                    _ => unreachable!("whole columns only"),
                })
                .collect();
            assert_eq!(bits, want, "{ctx}: decode_rows column {c}");
        }
        let first = decoded.first().map(|c| match c {
            SortedColumn::Int(v) => v.as_ptr().cast::<u8>(),
            SortedColumn::Float(v) => v.as_ptr().cast(),
        });
        assert_eq!(
            first,
            Some(buffer),
            "{ctx}: the first column is the words' buffer"
        );
        assert_eq!(
            decode_rows(keys, &codec, &[], threads),
            (positions, Vec::new()),
            "{ctx}: positions alone"
        );
        "u64"
    }

    /// Every sorted word decodes to its row's key in every column — `Int`
    /// columns at `i64::MIN` / `MAX`, constant (zero-width) columns,
    /// `Float` columns with ±0.0, ±inf and NaNs of both signs and several
    /// payloads — in `u64` and `u128` words, ascending and descending, on
    /// the sequential and the partition path.
    #[test]
    fn sorted_words_decode_to_their_rows_keys() {
        let neg = |x: f64| f64::from_bits(x.to_bits() | (1 << 63));
        let nan = |payload: u64| f64::from_bits(f64::NAN.to_bits() | payload);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            nan(0),
            neg(nan(0)),
            nan(1),
            neg(nan(0xBEEF)),
            nan(0x7_FFFF_FFFF_FFFF),
            neg(nan(0x4_0000_0000_0001)),
            1.5,
            -1.5,
            f64::MIN_POSITIVE,
            -f64::from_bits(1),
        ];
        let extremes = [i64::MIN, i64::MAX, 0, -1, 1];
        for len in [100usize, SEQ_THRESHOLD + 1000] {
            let mut rng = Rng64::new(len as u64 + 7);
            let mut ulps = || rng.below(1000) as u64;
            let top: Vec<i64> = (0..len).map(|_| i64::MAX - ulps() as i64).collect();
            let bottom: Vec<i64> = (0..len).map(|_| i64::MIN + ulps() as i64).collect();
            let one = 1.0f64.to_bits();
            let narrow: Vec<f64> = (0..len).map(|_| f64::from_bits(one + ulps())).collect();
            let negative: Vec<f64> = narrow.iter().map(|&x| -x).collect();
            let (min, max) = (vec![i64::MIN; len], vec![i64::MAX; len]);
            let (const_nan, neg_zero) = (vec![neg(nan(0xBEEF)); len], vec![-0.0; len]);
            let wide: Vec<i64> = (0..len).map(|_| extremes[rng.below(5)]).collect();
            let special: Vec<f64> = (0..len).map(|_| specials[rng.below(14)]).collect();
            for (cols, word) in [
                (
                    vec![
                        SortColumn::Int(&top),
                        SortColumn::Int(&min),
                        SortColumn::Float(&const_nan),
                    ],
                    "u64",
                ),
                (
                    vec![
                        SortColumn::Float(&negative),
                        SortColumn::Int(&bottom),
                        SortColumn::Int(&max),
                        SortColumn::Float(&neg_zero),
                    ],
                    "u64",
                ),
                (
                    vec![SortColumn::Int(&wide), SortColumn::Float(&narrow)],
                    "u128",
                ),
                (
                    vec![SortColumn::Float(&special), SortColumn::Int(&top)],
                    "u128",
                ),
            ] {
                for (ascending, threads) in [(true, 1), (false, 1), (true, 2), (false, 2)] {
                    let ctx = format!("len={len} {word} asc={ascending} threads={threads}");
                    assert_eq!(check_decode(&cols, ascending, threads, &ctx), word, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn key_inverses_are_exact() {
        for x in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX] {
            assert_eq!(i64_of_key(i64_key(x)), x);
        }
        for bits in [
            0u64,
            1 << 63,
            f64::NAN.to_bits() | 0xBEEF,
            f64::NAN.to_bits() | (1 << 63) | 1,
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            u64::MAX,
            1,
        ] {
            assert_eq!(f64_of_key(f64_key(f64::from_bits(bits))).to_bits(), bits);
        }
    }

    #[test]
    fn rows_pick_the_narrowest_word() {
        let word = |cols: &[SortColumn<'_>]| sorted_rows(cols, true, None, 1).1;
        // 63 varying bits beside the one position bit of two rows fit a
        // u64; a third row needs a second bit.
        let wide = [0i64, i64::MAX, 1];
        assert_eq!(word(&[SortColumn::Int(&wide[..2])]), "u64");
        assert_eq!(word(&[SortColumn::Int(&wide)]), "u128");
        // A constant column is free, whatever its value; both signs take
        // every bit.
        let (min, any) = ([i64::MIN; 3], [5i64, -5, 0]);
        assert_eq!(word(&[SortColumn::Int(&min)]), "u64");
        assert_eq!(
            word(&[SortColumn::Int(&min), SortColumn::Int(&any)]),
            "u128"
        );
        // Two full-range columns and a position pass 128 bits: chained
        // passes, still the stable order, either way round.
        let (x, y) = ([1i64, -1, 1, -1, 1], [i64::MAX, i64::MIN, i64::MAX, 0, 0]);
        let cols = [SortColumn::Int(&x), SortColumn::Int(&y)];
        assert_eq!(
            sorted_rows(&cols, true, None, 2),
            (vec![1, 3, 4, 0, 2], "chained")
        );
        assert_eq!(
            sorted_rows(&cols, false, None, 2),
            (vec![0, 2, 4, 3, 1], "chained")
        );
        let sel = [4u32, 2, 0];
        assert_eq!(sorted_rows(&cols, true, Some(&sel), 2).0, vec![4, 2, 0]);
    }

    /// Columns read through selections of their own sort as their
    /// gathered rows would: the pair sort, and the row sort in every word,
    /// with and without a selection of the rows sorted.
    #[test]
    fn columns_read_through_their_own_selections() {
        let mut rng = Rng64::new(41);
        for len in [100usize, SEQ_THRESHOLD + 1000] {
            let a: Vec<i64> = (0..len).map(|_| rng.range_i64(0..50)).collect();
            let b: Vec<i64> = (0..len).map(|_| rng.u64() as i64).collect();
            let c: Vec<i64> = (0..len).map(|_| rng.u64() as i64).collect();
            let f: Vec<f64> = (0..len).map(|i| (i % 7) as f64 - 3.5).collect();
            let mut pick = || -> Vec<u32> { (0..len).map(|_| rng.below(len) as u32).collect() };
            let (sa, sb, sc, sf, outer) = (pick(), pick(), pick(), pick(), pick());
            let through =
                |v: &[i64], s: &[u32]| -> Vec<i64> { s.iter().map(|&i| v[i as usize]).collect() };
            let (ga, gb, gc) = (through(&a, &sa), through(&b, &sb), through(&c, &sc));
            let gf: Vec<f64> = sf.iter().map(|&i| f[i as usize]).collect();
            let pairs = |sorted: SortedPairs| -> Vec<(i64, i64)> {
                match sorted {
                    SortedPairs::U64(k, c) => {
                        k.iter().map(|&k| (c.first(k), c.second(k))).collect()
                    }
                    SortedPairs::U128(k, c) => {
                        k.iter().map(|&k| (c.first(k), c.second(k))).collect()
                    }
                }
            };
            for threads in [1usize, 2] {
                for canonical in [false, true] {
                    let got =
                        radix_sort_columns(&a, &b, [Some(&sa), Some(&sb)], canonical, threads);
                    let want = radix_sort_columns(&ga, &gb, [None, None], canonical, threads);
                    assert_eq!(pairs(got), pairs(want), "len={len} threads={threads}");
                }
                for (picked, gathered, word) in [
                    (
                        vec![SortColumn::IntAt(&a, &sa)],
                        vec![SortColumn::Int(&ga)],
                        "u64",
                    ),
                    (
                        vec![SortColumn::IntAt(&a, &sa), SortColumn::IntAt(&b, &sb)],
                        vec![SortColumn::Int(&ga), SortColumn::Int(&gb)],
                        "u128",
                    ),
                    (
                        vec![SortColumn::IntAt(&b, &sb), SortColumn::IntAt(&c, &sc)],
                        vec![SortColumn::Int(&gb), SortColumn::Int(&gc)],
                        "chained",
                    ),
                    (
                        vec![SortColumn::FloatAt(&f, &sf)],
                        vec![SortColumn::Float(&gf)],
                        "",
                    ),
                ] {
                    for (sel, ctx) in [(None, "all rows"), (Some(&outer[..]), "a selection")] {
                        let ctx = format!("len={len} threads={threads} {word}, {ctx}");
                        let got = sorted_rows(&picked, true, sel, threads);
                        assert_eq!(got, sorted_rows(&gathered, true, sel, threads), "{ctx}");
                        assert!(word.is_empty() || got.1 == word, "{ctx}: {}", got.1);
                    }
                }
            }
        }
    }

    #[test]
    fn by_key_is_stable() {
        // Heavy ties in every word: rows with equal keys must keep their
        // order at every size (fallback and partition path alike), and
        // through the chained passes, which rely on it.
        for len in [100usize, SEQ_THRESHOLD + 1000, 40_000] {
            let mut rng = Rng64::new(len as u64);
            let pool = [i64::MIN, -1, 0, 1, i64::MAX];
            let narrow: Vec<i64> = (0..len).map(|_| rng.range_i64(0..16)).collect();
            let full: Vec<i64> = (0..len).map(|_| pool[rng.below(5)]).collect();
            let other: Vec<i64> = (0..len).map(|_| pool[rng.below(5)]).collect();
            for (cols, word) in [
                (vec![SortColumn::Int(&narrow)], "u64"),
                (vec![SortColumn::Int(&full)], "u128"),
                (
                    vec![SortColumn::Int(&full), SortColumn::Int(&other)],
                    "chained",
                ),
            ] {
                let mut expect: Vec<usize> = (0..len).collect();
                expect.sort_by_key(|&i| {
                    let key = |c: &SortColumn<'_>| match c {
                        SortColumn::Int(v) => v[i],
                        _ => unreachable!(),
                    };
                    cols.iter().map(key).collect::<Vec<_>>()
                });
                let got = sorted_rows(&cols, true, None, 4);
                assert_eq!(got, (expect, word), "stability violated at len={len}");
            }
        }
    }

    #[test]
    fn threshold_boundary_lengths() {
        let mut rng = Rng64::new(31);
        for len in [SEQ_THRESHOLD - 1, SEQ_THRESHOLD, SEQ_THRESHOLD + 1] {
            for threads in [1usize, 2, 4] {
                let data: Vec<i64> = (0..len).map(|_| rng.i64()).collect();
                check_i64(&data, threads, &format!("len={len} threads={threads}"));
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
