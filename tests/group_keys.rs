//! The fixed-width row-key path under every keyed operator.
//!
//! `group_by`, `group_ids`, `unique`, `union` / `intersect` / `minus` and
//! `value_counts` all run on one key encoder (a `u64` word per key column,
//! packed into one word when the varying bits fit) and one interner. This
//! suite checks them (a) against a naive row-at-a-time `BTreeMap`
//! reference over every key shape the encoder distinguishes, (b) for
//! bit-identical output at any thread count and through a selection
//! vector, and (c) for the allocation discipline that is the point of the
//! encoding: no per-row heap allocation.
//!
//! Kept in its own test binary — and its tests serialized — so nothing
//! else moves the process-global allocation counter mid-measurement.

use ringo::trace::mem::{alloc_count, TrackingAllocator};
use ringo::{AggOp, Cmp, ColumnType, Predicate, Ringo, Table, Value};
use ringo_rng::Rng64;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cell as the reference sees it: floats by bit pattern (the documented
/// key semantics), strings by text (so pools never matter).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Cell {
    I(i64),
    F(u64),
    S(String),
}

fn cell(t: &Table, row: usize, col: &str) -> Cell {
    match t.get(row, col).unwrap() {
        Value::Int(v) => Cell::I(v),
        Value::Float(v) => Cell::F(v.to_bits()),
        Value::Str(v) => Cell::S(v),
    }
}

fn cells(t: &Table, row: usize, cols: &[&str]) -> Vec<Cell> {
    cols.iter().map(|c| cell(t, row, c)).collect()
}

fn col_names(t: &Table) -> Vec<String> {
    t.schema().iter().map(|(n, _)| n.to_string()).collect()
}

fn all_rows(t: &Table) -> Vec<Vec<Cell>> {
    let names = col_names(t);
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    (0..t.n_rows()).map(|r| cells(t, r, &names)).collect()
}

/// A whole column, comparable across tables: floats by bits, strings by
/// text.
#[derive(Debug, PartialEq)]
enum Column<'a> {
    I(&'a [i64]),
    F(Vec<u64>),
    S(Vec<&'a str>),
}

fn columns(t: &Table) -> Vec<(&str, Column<'_>)> {
    let column = |name, ty| match ty {
        ColumnType::Int => Column::I(t.int_col(name).unwrap()),
        ColumnType::Float => Column::F(
            t.float_col(name)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        ),
        ColumnType::Str => {
            let syms = t.str_sym_col(name).unwrap();
            Column::S(syms.iter().map(|&s| t.str_value(s)).collect())
        }
    };
    t.schema()
        .iter()
        .map(|(name, ty)| (name, column(name, ty)))
        .collect()
}

/// Schema, row ids and every cell equal.
fn assert_identical(a: &Table, b: &Table, what: &str) {
    assert_eq!(a.row_ids(), b.row_ids(), "{what}: row ids");
    assert!(columns(a) == columns(b), "{what}: schema or cells differ");
}

/// Rows per shape: two whole morsels and a short third, the least that
/// splits a group-by across two partitions (one per whole morsel) while
/// the half a selection keeps still spans two morsels. Every shape with
/// thousands of groups stays far past the radix cutoff of the final
/// ordering (4,096 groups) at this size.
const N: usize = 2 * ringo::concurrent::DEFAULT_MORSEL_ROWS + 5_000;

/// One key shape: the key columns plus an int and a float column to
/// aggregate. `wide` says the key must not pack into one word.
struct Shape {
    name: &'static str,
    table: Table,
    keys: Vec<&'static str>,
    wide: bool,
}

fn shapes() -> Vec<Shape> {
    let mut rng = Rng64::new(0x6B65_7973);
    let base = |seed: u64| {
        let mut r = Rng64::new(seed);
        let mut t = Table::from_int_column("vi", (0..N).map(|_| r.range_i64(-500..500)).collect());
        t.add_float_column("vf", (0..N).map(|_| r.f64() * 8.0 - 4.0).collect())
            .unwrap();
        t
    };
    let words = ["ash", "birch", "cedar", "", "elm", "fir", "ginkgo", "hazel"];
    let mut out = Vec::new();

    let mut t = base(1);
    t.add_int_column("a", (0..N).map(|_| rng.range_i64(-3000..3000)).collect())
        .unwrap();
    out.push(Shape {
        name: "one int",
        table: t,
        keys: vec!["a"],
        wide: false,
    });

    let mut t = base(2);
    t.add_int_column("a", (0..N).map(|_| rng.below(700) as i64).collect())
        .unwrap();
    t.add_int_column(
        "b",
        (0..N).map(|_| 1_000_000 + rng.below(90) as i64).collect(),
    )
    .unwrap();
    out.push(Shape {
        name: "int x int, packed",
        table: t,
        keys: vec!["a", "b"],
        wide: false,
    });

    let extremes = [i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1, i64::MAX - 1];
    let mut t = base(3);
    for name in ["a", "b"] {
        let col = (0..N)
            .map(|_| extremes[rng.below(extremes.len())])
            .collect();
        t.add_int_column(name, col).unwrap();
    }
    out.push(Shape {
        name: "int x int with i64::MIN/MAX, wide",
        table: t,
        keys: vec!["a", "b"],
        wide: true,
    });

    let odd_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    let floats = [
        0.0,
        -0.0,
        f64::NAN,
        odd_nan,
        1.5,
        -1.5,
        f64::INFINITY,
        1e-300,
    ];
    let mut t = base(4);
    t.add_float_column(
        "f",
        (0..N).map(|_| floats[rng.below(floats.len())]).collect(),
    )
    .unwrap();
    out.push(Shape {
        name: "float with NaN and signed zeros",
        table: t,
        keys: vec!["f"],
        wide: false,
    });

    let mut t = base(5);
    let col: Vec<String> = (0..N)
        .map(|_| format!("{}{}", words[rng.below(words.len())], rng.below(40)))
        .collect();
    t.add_str_column("s", &col).unwrap();
    out.push(Shape {
        name: "str",
        table: t,
        keys: vec!["s"],
        wide: false,
    });

    let mut t = base(6);
    let col: Vec<&str> = (0..N).map(|_| words[rng.below(words.len())]).collect();
    t.add_str_column("s", &col).unwrap();
    t.add_int_column("a", (0..N).map(|_| rng.range_i64(-50..50)).collect())
        .unwrap();
    out.push(Shape {
        name: "str x int",
        table: t,
        keys: vec!["s", "a"],
        wide: true, // negative and non-negative ints differ in all 64 bits
    });
    out
}

/// Per group in first-appearance order: key cells, first row, and the
/// group's values of the two aggregated columns in row order.
struct RefGroup {
    key: Vec<Cell>,
    first_row: usize,
    ints: Vec<i64>,
    floats: Vec<f64>,
}

fn reference_groups(t: &Table, keys: &[&str], rows: &[usize]) -> (Vec<RefGroup>, Vec<usize>) {
    let (vi, vf) = (t.int_col("vi").unwrap(), t.float_col("vf").unwrap());
    let mut index: BTreeMap<Vec<Cell>, usize> = BTreeMap::new();
    let mut groups: Vec<RefGroup> = Vec::new();
    let mut ids = Vec::with_capacity(rows.len());
    for &row in rows {
        let key = cells(t, row, keys);
        let id = *index.entry(key.clone()).or_insert_with(|| {
            groups.push(RefGroup {
                key,
                first_row: row,
                ints: Vec::new(),
                floats: Vec::new(),
            });
            groups.len() - 1
        });
        groups[id].ints.push(vi[row]);
        groups[id].floats.push(vf[row]);
        ids.push(id);
    }
    (groups, ids)
}

const OPS: [(AggOp, Option<&str>); 10] = [
    (AggOp::Count, None),
    (AggOp::Sum, Some("vi")),
    (AggOp::Min, Some("vi")),
    (AggOp::Max, Some("vi")),
    (AggOp::Mean, Some("vi")),
    (AggOp::Sum, Some("vf")),
    (AggOp::Min, Some("vf")),
    (AggOp::Mean, Some("vf")),
    (AggOp::Var, Some("vf")),
    (AggOp::Std, Some("vi")),
];

fn check_group_by(shape: &Shape, out: &Table, groups: &[RefGroup], op: AggOp, col: Option<&str>) {
    let what = format!("{} {op:?}({col:?})", shape.name);
    assert_eq!(out.n_rows(), groups.len(), "{what}: group count");
    for (g, want) in groups.iter().enumerate() {
        assert_eq!(
            cells(out, g, &shape.keys),
            want.key,
            "{what}: key of group {g}"
        );
        let n = want.ints.len() as f64;
        let as_f64: Vec<f64> = match col {
            Some("vi") => want.ints.iter().map(|&v| v as f64).collect(),
            _ => want.floats.clone(),
        };
        match (op, col) {
            (AggOp::Count, _) => assert_eq!(out.int_col("out").unwrap()[g], n as i64, "{what}"),
            (AggOp::Sum | AggOp::Min | AggOp::Max, Some("vi")) => {
                let v = want.ints.iter().copied();
                let expect = match op {
                    AggOp::Sum => v.sum(),
                    AggOp::Min => v.min().unwrap(),
                    _ => v.max().unwrap(),
                };
                assert_eq!(out.int_col("out").unwrap()[g], expect, "{what}: group {g}");
            }
            _ => {
                let got = out.float_col("out").unwrap()[g];
                // Rows of a group fold in row order, so plain sums and
                // extrema match a sequential fold to the bit.
                let exact = match op {
                    AggOp::Sum => Some(as_f64.iter().skip(1).fold(as_f64[0], |a, x| a + x)),
                    AggOp::Min => Some(as_f64.iter().copied().fold(f64::INFINITY, f64::min)),
                    AggOp::Mean if col == Some("vi") => {
                        Some(want.ints.iter().sum::<i64>() as f64 / n)
                    }
                    AggOp::Mean => Some(as_f64.iter().skip(1).fold(as_f64[0], |a, x| a + x) / n),
                    _ => None,
                };
                if let Some(expect) = exact {
                    assert_eq!(got.to_bits(), expect.to_bits(), "{what}: group {g}");
                    continue;
                }
                // Welford vs the two-pass textbook formula: tolerance.
                let mean = as_f64.iter().sum::<f64>() / n;
                let var = as_f64.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
                let expect = if op == AggOp::Std { var.sqrt() } else { var };
                assert!(
                    (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                    "{what}: group {g}: {got} vs {expect}"
                );
            }
        }
    }
}

/// Counter value of whichever `table.group.keys_*` metric ran.
fn key_path_counts() -> (u64, u64) {
    (
        ringo::trace::counter("table.group.keys_packed").get(),
        ringo::trace::counter("table.group.keys_wide").get(),
    )
}

#[test]
fn keyed_operators_agree_with_a_row_at_a_time_reference() {
    let _serial = serial();
    for shape in shapes() {
        let mut t = shape.table.clone();
        t.set_threads(2);
        let every_row: Vec<usize> = (0..N).collect();
        let (groups, ids) = reference_groups(&t, &shape.keys, &every_row);
        assert!(
            groups.len() > 1 && groups.len() < N,
            "{}: a real grouping",
            shape.name
        );

        // group_by, all seven aggregates (some over both value types);
        // the first call also says which encoding the shape takes.
        ringo::trace::set_enabled(true);
        let before = key_path_counts();
        let count = t.group_by(&shape.keys, None, AggOp::Count, "out").unwrap();
        let after = key_path_counts();
        ringo::trace::set_enabled(false);
        let ran = (after.0 - before.0, after.1 - before.1);
        assert_eq!(
            ran,
            if shape.wide { (0, 1) } else { (1, 0) },
            "{}: encoding",
            shape.name
        );
        check_group_by(&shape, &count, &groups, AggOp::Count, None);
        for (op, col) in OPS {
            let out = t.group_by(&shape.keys, col, op, "out").unwrap();
            check_group_by(&shape, &out, &groups, op, col);
        }

        // group_ids: dense ids in first-appearance order.
        let (got_ids, n_groups) = t.group_ids(&shape.keys).unwrap();
        assert_eq!(n_groups, groups.len(), "{}: group_ids count", shape.name);
        let want_ids: Vec<i64> = ids.iter().map(|&g| g as i64).collect();
        assert_eq!(got_ids, want_ids, "{}: group_ids", shape.name);

        // unique: first row of every group, ids preserved.
        let u = t.unique(&shape.keys).unwrap();
        let firsts: Vec<u64> = groups.iter().map(|g| g.first_row as u64).collect();
        assert_eq!(u.row_ids(), firsts.as_slice(), "{}: unique", shape.name);
        let names = col_names(&t);
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let want: Vec<Vec<Cell>> = groups
            .iter()
            .map(|g| cells(&t, g.first_row, &names))
            .collect();
        assert_eq!(all_rows(&u), want, "{}: unique rows", shape.name);

        // value_counts on every single int or str key column.
        for key in &shape.keys {
            if matches!(cell(&t, 0, key), Cell::F(_)) {
                assert!(t.value_counts(key).is_err());
                continue;
            }
            let mut tally: BTreeMap<Cell, i64> = BTreeMap::new();
            for row in 0..N {
                *tally.entry(cell(&t, row, key)).or_default() += 1;
            }
            let mut want: Vec<(Cell, i64)> = tally.into_iter().collect();
            want.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let vc = t.value_counts(key).unwrap();
            let got: Vec<(Cell, i64)> = (0..vc.n_rows())
                .map(|r| (cell(&vc, r, key), vc.int_col("count").unwrap()[r]))
                .collect();
            assert_eq!(got, want, "{}: value_counts({key})", shape.name);
        }
    }
}

#[test]
fn set_operations_agree_across_differently_interned_pools() {
    let _serial = serial();
    // Two operands over one schema whose pools meet the same strings in
    // different orders (and each knows strings the other never saw), with
    // duplicates inside each and between them — once with keys that pack
    // into a word, once with keys that cannot.
    for wide in [false, true] {
        let mut rng = Rng64::new(0x5E70 + u64::from(wide));
        let names = [
            "kiwi",
            "lime",
            "mango",
            "nectarine",
            "olive",
            "pear",
            "quince",
        ];
        let make = |rng: &mut Rng64, names: &[&str], n: usize| {
            let ints: Vec<i64> = (0..n)
                .map(|_| match (wide, rng.below(40)) {
                    (true, 0) => i64::MIN,
                    (true, 1) => i64::MAX,
                    (_, v) => v as i64 % 5,
                })
                .collect();
            let mut t = Table::from_int_column("x", ints);
            let strs: Vec<&str> = (0..n).map(|_| names[rng.below(names.len())]).collect();
            t.add_str_column("s", &strs).unwrap();
            t.add_float_column(
                "f",
                (0..n)
                    .map(|_| [0.0, -0.0, f64::NAN][rng.below(3)])
                    .collect(),
            )
            .unwrap();
            t
        };
        let a = make(&mut rng, &names[..5], 3000);
        let reversed: Vec<&str> = names[2..].iter().rev().copied().collect();
        let b = make(&mut rng, &reversed, 2500);
        assert_ne!(
            a.pool().lookup("mango"),
            b.pool().lookup("mango"),
            "the pools disagree on symbols"
        );

        let (ra, rb) = (all_rows(&a), all_rows(&b));
        let in_b: BTreeSet<&Vec<Cell>> = rb.iter().collect();
        let distinct = |rows: &[Vec<Cell>], seen: &mut BTreeSet<Vec<Cell>>| -> Vec<usize> {
            (0..rows.len())
                .filter(|&r| seen.insert(rows[r].clone()))
                .collect()
        };

        let mut seen = BTreeSet::new();
        let keep_a = distinct(&ra, &mut seen);
        let keep_b = distinct(&rb, &mut seen);
        let u = a.union(&b).unwrap();
        let want: Vec<Vec<Cell>> = keep_a
            .iter()
            .map(|&r| ra[r].clone())
            .chain(keep_b.iter().map(|&r| rb[r].clone()))
            .collect();
        assert_eq!(all_rows(&u), want, "union (wide={wide})");
        let ids: Vec<u64> = keep_a.iter().map(|&r| r as u64).collect();
        assert_eq!(
            &u.row_ids()[..keep_a.len()],
            ids.as_slice(),
            "union keeps self ids"
        );

        for (name, got, keep_if_in_b) in [
            ("intersect", a.intersect(&b).unwrap(), true),
            ("minus", a.minus(&b).unwrap(), false),
        ] {
            let mut seen = BTreeSet::new();
            let want: Vec<usize> = (0..ra.len())
                .filter(|&r| in_b.contains(&ra[r]) == keep_if_in_b && seen.insert(&ra[r]))
                .collect();
            assert!(
                !want.is_empty() && want.len() < keep_a.len(),
                "{name}: non-trivial"
            );
            let ids: Vec<u64> = want.iter().map(|&r| r as u64).collect();
            assert_eq!(
                got.row_ids(),
                ids.as_slice(),
                "{name} (wide={wide}): rows kept"
            );
            let rows: Vec<Vec<Cell>> = want.iter().map(|&r| ra[r].clone()).collect();
            assert_eq!(all_rows(&got), rows, "{name} (wide={wide}): cells");
        }
    }
}

#[test]
fn output_is_bit_identical_at_any_thread_count_and_through_a_selection() {
    let _serial = serial();
    // One aggregate per accumulator kind (count, i64, f64 sum, f64
    // extremum, Welford); the reference test above covers the rest.
    let ops = [OPS[0], OPS[1], OPS[6], OPS[7], OPS[8]];
    // A selection that keeps about half the rows, out of step with the
    // morsel grid.
    let pred = Predicate::int("vi", Cmp::Lt, 0);
    for shape in shapes() {
        let mut t1 = shape.table.clone();
        t1.set_threads(1);
        let picked = t1.select(&pred).unwrap();
        let group = |t: &Table, (op, col): (AggOp, Option<&str>)| {
            t.group_by(&shape.keys, col, op, "out").unwrap()
        };
        assert!(
            picked.n_rows() > ringo::concurrent::DEFAULT_MORSEL_ROWS,
            "the selection spans two morsels"
        );
        let whole: Vec<Table> = ops.iter().map(|&o| group(&t1, o)).collect();
        let selected: Vec<Table> = ops.iter().map(|&o| group(&picked, o)).collect();
        // The single-threaded side of every other comparison, once.
        let ids1 = t1.group_ids(&shape.keys).unwrap();
        let unique1 = t1.unique(&shape.keys).unwrap();
        let sets1 = [
            t1.union(&picked).unwrap(),
            t1.intersect(&picked).unwrap(),
            t1.minus(&picked).unwrap(),
        ];
        let count_keys: Vec<&str> = shape.keys.iter().copied().filter(|k| *k != "f").collect();
        let counts1: Vec<Table> = count_keys
            .iter()
            .map(|key| t1.value_counts(key).unwrap())
            .collect();
        for threads in [2, 4, 8] {
            let mut t = shape.table.clone();
            t.set_threads(threads);
            let what = format!("{} at {threads} threads", shape.name);
            for (k, &(op, col)) in ops.iter().enumerate() {
                assert_identical(&group(&t, (op, col)), &whole[k], &format!("{what}: {op:?}"));
                let lazy = Ringo::with_threads(threads)
                    .query(&t)
                    .select(&pred)
                    .group_by(&shape.keys, col, op, "out")
                    .collect()
                    .unwrap();
                assert_identical(&lazy, &selected[k], &format!("{what}: lazy {op:?}"));
            }
            assert_eq!(t.group_ids(&shape.keys).unwrap(), ids1);
            assert_identical(
                &t.unique(&shape.keys).unwrap(),
                &unique1,
                &format!("{what}: unique"),
            );
            let other = t.select(&pred).unwrap();
            for (name, a, b) in [
                ("union", t.union(&other), &sets1[0]),
                ("intersect", t.intersect(&other), &sets1[1]),
                ("minus", t.minus(&other), &sets1[2]),
            ] {
                assert_identical(&a.unwrap(), b, &format!("{what}: {name}"));
            }
            for (key, want) in count_keys.iter().zip(&counts1) {
                assert_identical(
                    &t.value_counts(key).unwrap(),
                    want,
                    &format!("{what}: value_counts({key})"),
                );
            }
        }
    }
}

#[test]
fn group_by_allocates_per_block_not_per_row() {
    let _serial = serial();
    // Four morsels and four partitions: enough blocks for a per-block
    // count to show, with 400 times the bound in rows.
    const ROWS: i64 = 4 * ringo::concurrent::DEFAULT_MORSEL_ROWS as i64;
    const GROUPS: i64 = 1 << 14;
    let mut t = Table::from_int_column("k", (0..ROWS).map(|v| (v * 7919) % GROUPS).collect());
    t.set_threads(4);
    // Warm up: thread-pool spin-up, lazy statics.
    for _ in 0..2 {
        assert_eq!(
            t.group_by(&["k"], None, AggOp::Count, "n")
                .unwrap()
                .n_rows(),
            GROUPS as usize
        );
    }
    let mut best = usize::MAX;
    for _ in 0..5 {
        let before = alloc_count();
        let out = t.group_by(&["k"], None, AggOp::Count, "n").unwrap();
        let delta = alloc_count() - before;
        assert_eq!(out.n_rows(), GROUPS as usize);
        assert!(out
            .int_col("n")
            .unwrap()
            .iter()
            .all(|&n| n == ROWS / GROUPS));
        drop(out);
        best = best.min(delta);
    }
    // Per morsel: one key buffer, the partition bytes, offsets, cursor and
    // the scattered keys/positions; per partition: an interner and three
    // group vectors growing by doubling; then the ordering and the output.
    // Empirically 268 at 4 morsels and 4 partitions. The retired
    // `Vec<KeyAtom>` keys allocated once per row — over 262,000 here.
    assert!(
        best < 600,
        "group_by(Count) allocated {best} times for {ROWS} rows / {GROUPS} groups"
    );
}
