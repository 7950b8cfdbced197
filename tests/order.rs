//! `order_by` against a plain stable `sort_by` over row tuples.
//!
//! Numeric sort columns are sorted as one `(keys…, position)` word per
//! row through the partition sorter: a `u64` when the columns' varying
//! bits fit it beside the row position, a `u128` when they fit that, and
//! chained passes of the same sorter over column groups when they do not.
//! Whichever ran, the rows must come out where a stable comparison sort
//! puts them: columns, float bits and row ids, ascending and descending,
//! at threads 1, 2 and 4, through every verb that orders rows
//! (`order_by`, `ordered_by`, a lazy `select → order_by → collect`,
//! `next_k`, `value_counts`). Every case says which word it is meant for
//! and asserts the sorter agrees, so a case for a wider word cannot
//! quietly fit a narrower one. From `u64` words the sorted table's sort
//! columns are decoded off the sorted words, whole, so borrowing them
//! adds nothing to the table; from any other tier they are read through
//! the permutation, and the first borrow gathers them. `next_k` and
//! `value_counts` read positions only.

use ringo::concurrent::radix::SEQ_THRESHOLD;
use ringo::concurrent::{radix_sort_rows, SortColumn, SortedRows};
use ringo::table::{ColumnData, StringPool};
use ringo::{Cmp, ColumnType, Predicate, Ringo, Schema, Table};
use ringo_rng::Rng64;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One sort column of a case.
#[derive(Clone, Debug)]
enum Key {
    Int(Vec<i64>),
    Float(Vec<f64>),
}

impl Key {
    fn len(&self) -> usize {
        match self {
            Key::Int(v) => v.len(),
            Key::Float(v) => v.len(),
        }
    }

    /// The cell as bits, so NaN payloads and zero signs compare.
    fn bits(&self, row: usize) -> u64 {
        match self {
            Key::Int(v) => v[row] as u64,
            Key::Float(v) => v[row].to_bits(),
        }
    }

    fn cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            Key::Int(v) => v[a].cmp(&v[b]),
            Key::Float(v) => v[a].total_cmp(&v[b]),
        }
    }

    fn as_sort_column(&self) -> SortColumn<'_> {
        match self {
            Key::Int(v) => SortColumn::Int(v),
            Key::Float(v) => SortColumn::Float(v),
        }
    }
}

fn name(c: usize) -> String {
    format!("k{c}")
}

/// Payload of row `i`: distinct, so a misplaced payload shows.
fn payload(i: usize) -> f64 {
    i as f64 * 0.5
}

/// The table of a case: `k0..`, then the payload column `p`.
fn table_of(keys: &[Key], threads: usize) -> Table {
    let n = keys[0].len();
    let mut schema = Vec::new();
    let mut cols = Vec::new();
    for (c, key) in keys.iter().enumerate() {
        let (ty, data) = match key {
            Key::Int(v) => (ColumnType::Int, ColumnData::Int(v.clone())),
            Key::Float(v) => (ColumnType::Float, ColumnData::Float(v.clone())),
        };
        schema.push((name(c), ty));
        cols.push(data);
    }
    schema.push(("p".to_string(), ColumnType::Float));
    cols.push(ColumnData::Float((0..n).map(payload).collect()));
    let schema = Schema::new(schema);
    let mut t = Table::from_parts(schema, cols, StringPool::new()).unwrap();
    t.set_threads(threads);
    t
}

/// `rows` in the order a stable comparison sort by `keys` leaves them.
fn oracle(keys: &[Key], ascending: bool, mut rows: Vec<usize>) -> Vec<usize> {
    let cmp = |a: usize, b: usize| {
        keys.iter()
            .map(|k| k.cmp(a, b))
            .find(|&o| o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    };
    if ascending {
        rows.sort_by(|&a, &b| cmp(a, b));
    } else {
        rows.sort_by(|&a, &b| cmp(b, a));
    }
    rows
}

/// Asserts `got` holds exactly the rows `want` of the case, in order:
/// key cells bit for bit, payloads and row ids.
fn assert_rows(got: &Table, keys: &[Key], want: &[usize], ctx: &str) {
    assert_eq!(got.n_rows(), want.len(), "{ctx}: row count");
    let ids: Vec<u64> = want.iter().map(|&r| r as u64).collect();
    assert_eq!(got.row_ids(), ids, "{ctx}: row ids");
    let p: Vec<f64> = want.iter().map(|&r| payload(r)).collect();
    assert_eq!(got.float_col("p").unwrap(), p, "{ctx}: payload");
    for (c, key) in keys.iter().enumerate() {
        let cells: Vec<u64> = match key {
            Key::Int(_) => got
                .int_col(&name(c))
                .unwrap()
                .iter()
                .map(|&x| x as u64)
                .collect(),
            Key::Float(_) => got
                .float_col(&name(c))
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect(),
        };
        let expect: Vec<u64> = want.iter().map(|&r| key.bits(r)).collect();
        assert_eq!(cells, expect, "{ctx}: column k{c}");
    }
}

/// The word a row sort runs in, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    U64,
    U128,
    Chained,
}
use Tier::{Chained, U128, U64};

/// The word the sorter sorts `keys` in over the rows of `sel`.
fn tier(keys: &[Key], ascending: bool, sel: Option<&[u32]>) -> Tier {
    let cols: Vec<SortColumn<'_>> = keys.iter().map(Key::as_sort_column).collect();
    match radix_sort_rows(&cols, ascending, sel, 2) {
        SortedRows::U64(..) => U64,
        SortedRows::U128(..) => U128,
        SortedRows::Chained(_) => Chained,
    }
}

/// Asserts the sort columns of `sorted` are whole (decoded off `u64`
/// words) when `decoded`, and read through the permutation otherwise:
/// borrowing them whole adds nothing to the table, or gathers them.
fn assert_whole(sorted: &Table, keys: &[Key], decoded: bool, ctx: &str) {
    let before = sorted.mem_size();
    for (c, key) in keys.iter().enumerate() {
        let rows = match key {
            Key::Int(_) => sorted.int_col(&name(c)).unwrap().len(),
            Key::Float(_) => sorted.float_col(&name(c)).unwrap().len(),
        };
        assert_eq!(rows, sorted.n_rows(), "{ctx}: column k{c}");
    }
    let gathered = sorted.mem_size() - before;
    let n = sorted.n_rows();
    assert_eq!(
        gathered == 0,
        decoded || n == 0,
        "{ctx}: borrowing the sort columns of {n} rows gathered {gathered} B"
    );
}

/// Every verb that orders rows, both directions, threads 1, 2 and 4,
/// against the oracle. `word` is the word the case is built for.
fn check(what: &str, keys: &[Key], word: Tier) {
    let n = keys[0].len();
    let names: Vec<String> = (0..keys.len()).map(name).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    // The lazy chain keeps the rows whose payload is at least this: the
    // later two thirds, so its selection vector is not the identity.
    let cut = payload(n / 3);
    let kept: Vec<usize> = (n / 3..n).collect();
    let sel: Vec<u32> = kept.iter().map(|&r| r as u32).collect();

    for ascending in [true, false] {
        let dir = if ascending { "asc" } else { "desc" };
        assert_eq!(tier(keys, ascending, None), word, "{what} {dir}: word");
        let want = oracle(keys, ascending, (0..n).collect());
        let want_kept = oracle(keys, ascending, kept.clone());
        for threads in [1usize, 2, 4] {
            let ctx = format!("{what} {dir} threads={threads}");
            let t = table_of(keys, threads);

            let mut eager = t.clone();
            eager.order_by(&names, ascending).unwrap();
            assert_whole(&eager, keys, word == U64, &format!("{ctx}: order_by"));
            assert_rows(&eager, keys, &want, &format!("{ctx}: order_by"));

            let copy = t.ordered_by(&names, ascending).unwrap();
            assert_whole(&copy, keys, word == U64, &format!("{ctx}: ordered_by"));
            assert_rows(&copy, keys, &want, &format!("{ctx}: ordered_by"));
            assert_rows(
                &t,
                keys,
                &(0..n).collect::<Vec<_>>(),
                &format!("{ctx}: input kept"),
            );

            let lazy = Ringo::with_threads(threads)
                .query(&t)
                .select(&Predicate::float("p", Cmp::Ge, cut))
                .order_by(&names, ascending)
                .collect()
                .unwrap();
            assert_rows(&lazy, keys, &want_kept, &format!("{ctx}: lazy"));
        }
        // The lazy sort packs positions in the selection, which are fewer
        // bits than row numbers: its word may be narrower than the whole
        // table's, never wider.
        assert!(
            tier(keys, ascending, Some(&sel)) <= word,
            "{what} {dir}: a selection must not widen the key"
        );
    }
    check_next_k(what, keys);
    check_value_counts(what, keys);
}

/// `next_k(k0, k1, 1)` joins each row to its successor in `(k0, k1)`
/// order within its `k0` group.
fn check_next_k(what: &str, keys: &[Key]) {
    if keys.len() < 2 {
        return;
    }
    let n = keys[0].len();
    let order = oracle(&keys[..2], true, (0..n).collect());
    let pairs: Vec<(usize, usize)> = order
        .windows(2)
        .filter(|w| keys[0].bits(w[0]) == keys[0].bits(w[1]))
        .map(|w| (w[0], w[1]))
        .collect();
    let pred: Vec<f64> = pairs.iter().map(|&(a, _)| payload(a)).collect();
    let succ: Vec<f64> = pairs.iter().map(|&(_, b)| payload(b)).collect();
    for threads in [1usize, 2, 4] {
        let t = table_of(keys, threads);
        let j = t.next_k(Some("k0"), "k1", 1).unwrap();
        let ctx = format!("{what}: next_k threads={threads}");
        assert_eq!(j.float_col("p").unwrap(), pred, "{ctx}: predecessors");
        assert_eq!(j.float_col("p-1").unwrap(), succ, "{ctx}: successors");
    }
}

/// `value_counts(k0)`: counts descending, ties by ascending value.
fn check_value_counts(what: &str, keys: &[Key]) {
    let Key::Int(v) = &keys[0] else { return };
    let mut counts: BTreeMap<i64, i64> = BTreeMap::new();
    for &x in v {
        *counts.entry(x).or_default() += 1;
    }
    let mut want: Vec<(i64, i64)> = counts.into_iter().collect();
    want.sort_by_key(|&(value, count)| (std::cmp::Reverse(count), value));
    for threads in [1usize, 2, 4] {
        let c = table_of(keys, threads).value_counts("k0").unwrap();
        let got: Vec<(i64, i64)> = c
            .int_col("k0")
            .unwrap()
            .iter()
            .copied()
            .zip(c.int_col("count").unwrap().iter().copied())
            .collect();
        assert_eq!(got, want, "{what}: value_counts threads={threads}");
    }
}

fn ints(rng: &mut Rng64, n: usize, range: std::ops::Range<i64>) -> Key {
    Key::Int((0..n).map(|_| rng.range_i64(range.clone())).collect())
}

/// Doubles a few ulps above 1.0: one sign, one exponent, ten varying bits.
fn narrow_floats(rng: &mut Rng64, n: usize) -> Key {
    let one = 1.0f64.to_bits();
    Key::Float(
        (0..n)
            .map(|_| f64::from_bits(one + rng.below(1000) as u64))
            .collect(),
    )
}

/// Every special value `total_cmp` has an opinion on, many times over.
fn special_floats(rng: &mut Rng64, n: usize) -> Key {
    let neg_nan = f64::from_bits(f64::NAN.to_bits() | (1 << 63));
    let payload_nan = f64::from_bits(f64::NAN.to_bits() | 0xBEEF);
    let pool = [
        f64::NAN,
        neg_nan,
        payload_nan,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::from_bits(1),
        1.5,
        -1.5,
        f64::MAX,
        f64::MIN,
    ];
    Key::Float((0..n).map(|_| pool[rng.below(pool.len())]).collect())
}

/// Rows enough for the partition passes (the sorter's own threshold is
/// exercised size by size below): 6,000, so a position takes 13 bits.
const LONG: usize = SEQ_THRESHOLD + 1904;

#[test]
fn packed_int_keys_match_the_stable_oracle() {
    let mut rng = Rng64::new(20);
    // Heavy duplicates: 300 × 300 values over 40k rows, so ties are the
    // rule and stability is read off the row ids.
    let n = 40_960;
    check(
        "two narrow columns, 40k rows",
        &[ints(&mut rng, n, 0..300), ints(&mut rng, n, 0..300)],
        U64,
    );
    check(
        "three columns",
        &[
            ints(&mut rng, LONG, 0..8),
            ints(&mut rng, LONG, -40..0),
            ints(&mut rng, LONG, 1_000..1_050),
        ],
        U64,
    );
    check(
        "all-negative ids",
        &[ints(&mut rng, LONG, -100_000..-1)],
        U64,
    );
    check(
        "ids within 700 of i64::MAX",
        &[
            ints(&mut rng, LONG, i64::MAX - 700..i64::MAX),
            ints(&mut rng, LONG, i64::MAX - 700..i64::MAX),
        ],
        U64,
    );
    check(
        "an all-equal leading column adds no bits",
        &[Key::Int(vec![7; LONG]), ints(&mut rng, LONG, 0..50)],
        U64,
    );
    check(
        "every row equal",
        &[Key::Int(vec![-3; LONG]), Key::Int(vec![i64::MAX; LONG])],
        U64,
    );
    // 51 bits beside the 13 of a position among 6,000: no bit to spare.
    check(
        "a 51-bit column fills the word",
        &[Key::Int(
            (0..LONG).map(|_| (rng.u64() >> 13) as i64).collect(),
        )],
        U64,
    );
}

#[test]
fn wide_keys_sort_in_one_u128_word() {
    let mut rng = Rng64::new(21);
    // The sign bit is the top of the biased key: ids of both signs vary
    // in all 64 bits.
    check(
        "mixed sign",
        &[ints(&mut rng, LONG, -500..500), ints(&mut rng, LONG, 0..9)],
        U128,
    );
    check(
        "full range",
        &[Key::Int((0..LONG).map(|_| rng.i64()).collect())],
        U128,
    );
    check(
        "i64::MIN beside i64::MAX",
        &[Key::Int(
            (0..LONG).map(|i| [i64::MIN, i64::MAX, 0][i % 3]).collect(),
        )],
        U128,
    );
    // 52 bits beside the 13 of a position: one too many for a u64.
    check(
        "a 52-bit column leaves no room for the position",
        &[Key::Int(
            (0..LONG).map(|_| (rng.u64() >> 12) as i64).collect(),
        )],
        U128,
    );
    // Two 32-bit columns fit a u64, but not beside a position.
    check(
        "two 32-bit columns",
        &[
            ints(&mut rng, LONG, 0..1 << 32),
            ints(&mut rng, LONG, 0..1 << 32),
        ],
        U128,
    );
    // 64 + 51 + 13: the u128 word filled to the last bit.
    check(
        "a full-range column over a 51-bit one",
        &[
            Key::Int((0..LONG).map(|_| rng.i64()).collect()),
            Key::Int((0..LONG).map(|_| (rng.u64() >> 13) as i64).collect()),
        ],
        U128,
    );
}

/// Full-range ids from a pool of five: every bit varies, and ties are the
/// rule.
fn full_range_ties(rng: &mut Rng64, n: usize) -> Key {
    let pool = [i64::MIN, -1, 0, 1, i64::MAX];
    Key::Int((0..n).map(|_| pool[rng.below(pool.len())]).collect())
}

#[test]
fn wide_keys_take_the_chained_path() {
    let mut rng = Rng64::new(25);
    // 64 + 52 + 13 bits: one past the u128 word.
    check(
        "a full-range column over a 52-bit one",
        &[
            Key::Int((0..LONG).map(|_| rng.i64()).collect()),
            Key::Int((0..LONG).map(|_| (rng.u64() >> 12) as i64).collect()),
        ],
        Chained,
    );
    // 1 + 64 + 51 + 13 bits: the last two columns fill a u128 pass, the
    // first column's pass is a u64.
    check(
        "one bit over a full-range column over a 51-bit one",
        &[
            ints(&mut rng, LONG, 0..2),
            Key::Int((0..LONG).map(|_| rng.i64()).collect()),
            Key::Int((0..LONG).map(|_| (rng.u64() >> 13) as i64).collect()),
        ],
        Chained,
    );
    check(
        "two full-range columns, ties",
        &[
            full_range_ties(&mut rng, LONG),
            full_range_ties(&mut rng, LONG),
        ],
        Chained,
    );
    // Over 128 bits even without the position: three passes.
    check(
        "three full-range columns, ties",
        &[
            full_range_ties(&mut rng, LONG),
            full_range_ties(&mut rng, LONG),
            full_range_ties(&mut rng, LONG),
        ],
        Chained,
    );
    check(
        "mixed sign, special floats, a narrow column",
        &[
            ints(&mut rng, LONG, -3..3),
            special_floats(&mut rng, LONG),
            ints(&mut rng, LONG, 0..4),
        ],
        Chained,
    );
    check(
        "three full-range columns, 40 rows",
        &[
            full_range_ties(&mut rng, 40),
            full_range_ties(&mut rng, 40),
            full_range_ties(&mut rng, 40),
        ],
        Chained,
    );
}

#[test]
fn float_keys_order_by_total_cmp_bit_for_bit() {
    let mut rng = Rng64::new(22);
    check("narrow floats", &[narrow_floats(&mut rng, LONG)], U64);
    check(
        "float then int",
        &[narrow_floats(&mut rng, LONG), ints(&mut rng, LONG, -9..0)],
        U64,
    );
    check(
        "int then float",
        &[ints(&mut rng, LONG, 0..4), narrow_floats(&mut rng, LONG)],
        U64,
    );
    // Both signs (and both NaNs) vary in every bit of the key.
    check(
        "NaN, zeros, infinities",
        &[special_floats(&mut rng, LONG)],
        U128,
    );
    check(
        "special floats under an int",
        &[ints(&mut rng, LONG, 0..3), special_floats(&mut rng, LONG)],
        U128,
    );
    // One sign of zero and of NaN still spans 63 bits.
    let small = [f64::NAN, 0.0, f64::INFINITY, 2.5];
    check(
        "non-negative specials, 64 rows",
        &[Key::Float((0..64).map(|i| small[(i * 7) % 4]).collect())],
        U128,
    );
    // PageRank-like scores: one sign, exponents over four decades, every
    // mantissa bit varying.
    check(
        "multi-magnitude floats",
        &[Key::Float(
            (0..LONG)
                .map(|_| (rng.f64() + 0.01) * 10f64.powi(-(rng.below(3) as i32)))
                .collect(),
        )],
        U128,
    );
}

#[test]
fn every_size_around_the_sequential_threshold() {
    let mut rng = Rng64::new(23);
    for n in [
        0usize,
        1,
        2,
        SEQ_THRESHOLD - 1,
        SEQ_THRESHOLD,
        SEQ_THRESHOLD + 1,
    ] {
        check(
            &format!("narrow ids, {n} rows"),
            &[ints(&mut rng, n, 0..64), ints(&mut rng, n, -64..0)],
            U64,
        );
        // Under two rows nothing varies, so even ids of both signs fit a
        // u64.
        let signs = (0..n).map(|i| {
            if i % 2 == 0 {
                -1 - rng.range_i64(0..64)
            } else {
                rng.range_i64(0..64)
            }
        });
        check(
            &format!("mixed sign, {n} rows"),
            &[Key::Int(signs.collect())],
            if n < 2 { U64 } else { U128 },
        );
        if n >= SEQ_THRESHOLD - 1 {
            check(
                &format!("two full-range columns, {n} rows"),
                &[full_range_ties(&mut rng, n), full_range_ties(&mut rng, n)],
                Chained,
            );
        }
    }
}

#[test]
fn a_column_named_twice_counts_once_and_no_column_is_a_no_op() {
    let mut rng = Rng64::new(24);
    // 30 bits once beside 13 position bits fit a u64; counted twice they
    // would not.
    let keys = [ints(&mut rng, LONG, 0..1 << 30)];
    assert_eq!(tier(&keys, true, None), U64);
    let want = oracle(&keys, true, (0..LONG).collect());
    let mut t = table_of(&keys, 2);
    t.order_by(&["k0", "k0", "k0"], true).unwrap();
    assert_whole(&t, &keys, true, "k0 three times");
    assert_rows(&t, &keys, &want, "k0 three times");

    let before = table_of(&keys, 2);
    let mut t = before.clone();
    t.order_by(&[], true).unwrap();
    assert_rows(&t, &keys, &(0..LONG).collect::<Vec<_>>(), "no columns");
    let lazy = Ringo::with_threads(2)
        .query(&before)
        .order_by(&[], false)
        .collect()
        .unwrap();
    assert_rows(
        &lazy,
        &keys,
        &(0..LONG).collect::<Vec<_>>(),
        "no columns, lazy",
    );
    assert!(t.order_by(&["nope"], true).is_err());
}
